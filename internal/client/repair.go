package client

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"cdstore/internal/metadata"
)

// RepairStats reports a share-rebuild operation.
type RepairStats struct {
	// Secrets counts every secret of the file; SecretsReused those among
	// them whose row the target confirmed it holds, or which repeat a row
	// earlier in the file, so that nothing was read or sent for them.
	Secrets       int64
	SecretsReused int64
	SharesRebuilt int64
	// BytesReuploads counts the share bytes actually sent to the target:
	// a rebuilt share the target already holds for this user is not sent.
	BytesReuploads int64
	// Restore carries the read-side stats of the underlying streaming
	// read (downloaded bytes, subset retries, failovers); its
	// SecretsReused, which counts the session memo's fills of a restore,
	// stays 0.
	Restore RestoreStats
}

// rowKey names one secret's row: SHA-256 over the repair's target cloud
// index (noTarget for a restore, which has none), the secret's size, and
// the secret's share fingerprint on every cloud whose recipe the engine
// fetched, cloud index beside each, in cloud order. At least k clouds are in
// it, so equal keys mean equal codewords — equal secrets under convergent
// dispersal — and therefore the same secret, of the same size, with the
// same share on the target.
type rowKey metadata.Fingerprint

// noTarget is a restore's target: its engine decodes secrets instead of
// rebuilding shares, and its row keys are built with it.
const noTarget = -1

// rowKeyer builds the row keys of the file an engine reads, over every
// cloud it reads from when the file is planned (planFile, the one plan of
// a restore and a repair alike); a cloud dropped later keeps its recipe
// and its place in the keys, so a key still names one codeword.
type rowKeyer struct {
	target byte
	clouds []cloudRecipe // in cloud order
	buf    []byte
}

func (e *restoreEngine) rowKeyer() *rowKeyer {
	clouds := e.clouds()
	slices.SortFunc(clouds, func(a, b cloudRecipe) int { return cmp.Compare(a.cloud, b.cloud) })
	return &rowKeyer{
		target: byte(e.target),
		clouds: clouds,
		buf:    make([]byte, 0, 1+4+len(clouds)*(1+metadata.FingerprintSize)),
	}
}

// at returns the key of secret seq's row.
func (rk *rowKeyer) at(seq uint64) rowKey {
	buf := append(rk.buf[:0], rk.target)
	buf = binary.BigEndian.AppendUint32(buf, rk.clouds[0].recipe.Entries[seq].SecretSize)
	for _, cr := range rk.clouds {
		buf = append(buf, byte(cr.cloud))
		buf = append(buf, cr.recipe.Entries[seq].ShareFP[:]...)
	}
	return rowKey(metadata.FingerprintOf(buf))
}

// candidates gives every distinct row of e's plan (rows of them) the
// entry the target may already hold for it: the target's own entry when
// the target has a recipe (e.held), otherwise one built from the share
// fingerprint a finished repair left in the session memo (the row key
// binds the secret size, which gives the share size). It returns the
// entries by row, and the first position of each row that has one.
func (c *Client) candidates(e *restoreEngine, rows int) ([]metadata.RecipeEntry, []uint64) {
	entries := make([]metadata.RecipeEntry, rows)
	var firsts []uint64
	var fp []byte // every probe's copy of a memoised fingerprint
	for pos := range e.rows {
		r := &e.rows[pos]
		if r.repeat {
			continue
		}
		var ok bool
		if e.held != nil {
			entries[r.row] = e.held.Entries[pos]
		} else if fp, ok = c.memo.appendTo(fp[:0], r.key); ok {
			size := e.sizes[pos].SecretSize
			entries[r.row] = metadata.RecipeEntry{
				ShareFP:    metadata.Fingerprint(fp),
				ShareSize:  uint32(c.codec.ShareSize(int(size))),
				SecretSize: size,
			}
		} else {
			continue
		}
		firsts = append(firsts, uint64(pos))
	}
	return entries, firsts
}

// confirm asks the target the one ownership question backup asks
// (MsgQuery) whether it holds the share of every candidate row for this
// user — it answers no for a share that went with a deleted file and for
// one whose bytes were quarantined — and marks the rows it holds, which
// the engine then skips; the others are rebuilt. So neither a memo hit
// nor the target's own recipe ever stands in for bytes that are gone.
// (A restore's entry of the session memo needs no such question: a hit
// there hands back bytes this session verified and claims nothing about
// what the clouds hold now, where a candidate here claims the target
// holds a share.)
func (e *restoreEngine) confirm(target *cloudConn, entries []metadata.RecipeEntry, firsts []uint64) error {
	fps := make([]metadata.Fingerprint, len(firsts))
	for i, pos := range firsts {
		fps[i] = entries[e.rows[pos].row].ShareFP
	}
	owned, err := target.owned(fps)
	if err != nil {
		return err
	}
	for i, pos := range firsts {
		e.rows[pos].held = owned[i]
	}
	return nil
}

// Repair brings one backup's shares on cloud back to full health, per
// §3.1: "In the presence of cloud failures, CDStore reconstructs original
// secrets and then rebuilds the lost shares as in Reed-Solomon codes."
// It is the one repair operation, whether the cloud is an empty
// replacement, lost the file's recipe, or had shares quarantined by a
// scrub pass: it asks the cloud what it holds and rebuilds the rest.
//
// It runs on the same streaming engine as Restore: each secret's k
// surviving shares arrive through the pipelined windows, from clouds
// whose recipes carry one backup's version, and a decode worker checks
// each against the fingerprint its cloud's recipe holds, then computes
// share `cloud` directly as one Reed-Solomon row over them. Neither the
// package nor the secret is rebuilt: k shares that match recipes of one
// version are k shares of the codeword that backup stored, so the row is
// bit for bit the share it stored on `cloud`. A cloud that served a
// mismatching share is demoted and the secret's share fetched from every
// reachable cloud; any k that match rebuild the row. CPU per secret is k
// fingerprints, one RS row and one fingerprint of the rebuilt share. The
// in-order sink hands each rebuilt share to an uploader for the target,
// backup's: each batch asks the target which of its shares this user
// already holds there (§3.3) and sends only the rest. The target must be
// connected at the same cloud index and re-fingerprints what it receives.
// Beside the file's recipes and plan, memory held is O(window).
//
// Each distinct row (see rowKey) goes through that at most once, and only
// if the target lacks it. The engine fetches the target's recipe in the
// same concurrent round trip as the survivors'; before it runs, the file
// is planned as a restore's is (planFile), and every distinct row takes a
// candidate entry from the target's recipe when it has a usable one, or
// else from the session memo's fingerprints of rows rebuilt there; one ownership
// question asks the target which candidate shares it holds (confirm). The
// engine skips those rows and every repeat as a restore skips the rows
// its memo holds: only the other rows are read, verified and rebuilt,
// which saves their downloads, and every other secret takes the entry of
// its row. A share rebuilt against the target's
// recipe must reproduce the fingerprint that recipe holds for it, or the
// repair aborts before sending it. The recipe is written through backup's
// putRecipe — from the recipes the engine already fetched, no second
// GetRecipe — only when the target had none it could use, and rows enter
// the session memo, unpinned, only once the target acknowledged their
// shares and the recipe. A recipe written here carries the version
// of the clouds it was read from. Traffic and time therefore follow the
// stored bytes the cloud lacks for this user, not the logical ones; a
// repeated repair of a healthy cloud costs one query.
func (c *Client) Repair(path string, cloud int) (*RepairStats, error) {
	target, err := c.cloudConnAt(cloud)
	if err != nil {
		return nil, err
	}
	e, err := c.newRestoreEngine(path, cloud)
	if err != nil {
		return nil, err
	}
	entries, firsts := c.candidates(e, len(e.planFile()))
	if err := e.confirm(target, entries, firsts); err != nil {
		return nil, err
	}
	up := c.newUploader(target, &backupCounters{})
	var rebuilt int64
	err = e.run(nil, func(d decodedSecret) error {
		row := e.rows[d.seq].row
		if d.placeholder {
			up.record(d.seq, entries[row])
			return nil
		}
		if e.held != nil && d.fp != e.held.Entries[d.seq].ShareFP {
			c.sharePool.Put(d.data)
			return fmt.Errorf("client: rebuilt share of secret %d does not reproduce its recipe fingerprint", d.seq)
		}
		rebuilt++
		err := up.add(shareItem{seq: d.seq, fp: d.fp, data: d.data, secretSize: uint32(d.secretSize)})
		entries[row] = up.entries[d.seq]
		return err
	})
	if err != nil {
		up.recycle() // the aborted batch still holds pool buffers
		return nil, err
	}
	if err := up.flush(); err != nil {
		return nil, err
	}
	stats := &RepairStats{
		Secrets:        e.secrets,
		SecretsReused:  e.secrets - rebuilt,
		SharesRebuilt:  rebuilt,
		BytesReuploads: up.counters.transferredShareBytes.Load(),
		Restore:        *e.stats(),
	}
	// Same cross-check Restore applies, over every secret, rebuilt or
	// reused: a recipe whose FileSize disagrees with the sum of its secret
	// sizes must fail loudly, not be copied onto the target.
	if uint64(stats.Restore.Bytes) != e.fileSize {
		return nil, fmt.Errorf("client: repair read %d bytes, recipe says %d", stats.Restore.Bytes, e.fileSize)
	}
	if e.held == nil {
		if err := c.putRecipe(cloud, path, e.version, e.fileSize, e.numSecrets, up); err != nil {
			return nil, err
		}
	}
	for _, r := range e.rows {
		if !r.repeat && !r.held {
			c.memo.donate(r.key, append(c.secretPool.Get(metadata.FingerprintSize)[:0], entries[r.row].ShareFP[:]...), 0)
		}
	}
	return stats, nil
}
