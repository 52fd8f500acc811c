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
	// read (downloaded bytes, subset retries, failovers).
	Restore RestoreStats
}

// repairMemoRows bounds the session memo of rebuilt rows (Client.
// repairMemo); a row — its key, its recipe entry and the LRU's bookkeeping
// around them — occupies a little over 200 bytes, so the memo stays under
// 16 MiB. 64k rows is half a gibibyte of 8 KB secrets; a session that
// rebuilds more distinct rows than that between two occurrences of one
// simply rebuilds it again.
const repairMemoRows = 64 << 10

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

// rowKeyer builds the row keys of the file an engine reads, over the clouds
// the engine held when it was made: the one place a row key is computed,
// for the repair plan and the restore plan alike.
type rowKeyer struct {
	target byte
	clouds []cloudRecipe // in cloud order
	buf    []byte
}

func (e *restoreEngine) rowKeyer(target int) *rowKeyer {
	clouds := e.clouds()
	slices.SortFunc(clouds, func(a, b cloudRecipe) int { return cmp.Compare(a.cloud, b.cloud) })
	return &rowKeyer{
		target: byte(target),
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

// planRow is a distinct row of the file being repaired and the first
// sequence number carrying it.
type planRow struct {
	key rowKey
	seq uint64
}

// repairPlan sorts one file's secrets into those Repair must rebuild and
// those the target already holds. rebuild and held are in ascending
// sequence order.
type repairPlan struct {
	// rebuild lists the rows the target does not hold: the engine's
	// restriction, and what enters the session memo once the repair
	// succeeded.
	rebuild []planRow
	// held lists the rows with a candidate entry — from the target's own
	// recipe, or else from the session memo — and, once confirm has asked
	// the target, only those whose share it holds.
	held []planRow
	// repeats pairs each later occurrence of a row with the sequence
	// number of its first, whose entry it takes once that one is settled.
	repeats [][2]uint64
}

// seqs returns the sequence numbers to rebuild.
func (p *repairPlan) seqs() []uint64 {
	seqs := make([]uint64, len(p.rebuild))
	for i, r := range p.rebuild {
		seqs[i] = r.seq
	}
	return seqs
}

// planRepair builds the plan for the file e rebuilds, filling entries —
// the target's recipe under construction — with a candidate for every
// distinct row it can: the target's own entry when the target has a
// recipe (e.held), otherwise the session memo's. It costs one hash and
// one map probe per secret, and one memo probe per distinct row.
func (c *Client) planRepair(e *restoreEngine, entries []metadata.RecipeEntry) *repairPlan {
	keys := e.rowKeyer(e.target)
	p := &repairPlan{}
	rows := make(map[rowKey]uint64)
	for seq := range entries {
		row := planRow{key: keys.at(uint64(seq)), seq: uint64(seq)}
		if first, repeat := rows[row.key]; repeat {
			p.repeats = append(p.repeats, [2]uint64{row.seq, first})
			continue
		}
		rows[row.key] = row.seq
		if e.held != nil {
			entries[seq] = e.held.Entries[seq]
			p.held = append(p.held, row)
		} else if memoised, ok := c.repairMemo.Get(string(row.key[:])); ok {
			entries[seq] = memoised.(metadata.RecipeEntry)
			p.held = append(p.held, row)
		} else {
			p.rebuild = append(p.rebuild, row)
		}
	}
	return p
}

// confirm asks the target the one ownership question backup asks
// (MsgQuery), in batches, whether it holds the share of every candidate
// row for this user — it answers no for a share that went with a deleted
// file and for one whose bytes were quarantined — and moves the rows it
// does not hold to the rebuild list,
// so neither a memo hit nor the target's own recipe ever stands in for
// bytes that are gone. (Restore's memo of decoded secrets needs no such
// question: a hit there hands back bytes this session verified and claims
// nothing about what the clouds hold now, where a candidate here claims
// the target holds a share.)
func (p *repairPlan) confirm(target *cloudConn, entries []metadata.RecipeEntry) error {
	held := p.held[:0]
	for lo := 0; lo < len(p.held); lo += confirmBatch {
		batch := p.held[lo:min(lo+confirmBatch, len(p.held))]
		fps := make([]metadata.Fingerprint, len(batch))
		for i, r := range batch {
			fps[i] = entries[r.seq].ShareFP
		}
		owned, err := target.owned(fps)
		if err != nil {
			return err
		}
		for i, r := range batch {
			if owned[i] {
				held = append(held, r)
			} else {
				p.rebuild = append(p.rebuild, r)
			}
		}
	}
	if len(held) < len(p.held) {
		slices.SortFunc(p.rebuild, func(a, b planRow) int { return cmp.Compare(a.seq, b.seq) })
	}
	p.held = held
	return nil
}

// confirmBatch bounds one of confirm's queries (32 bytes per
// fingerprint, so 4096 fps is a 128KB payload).
const confirmBatch = 4096

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
// Memory held is O(window).
//
// Each distinct row (see rowKey) goes through that at most once, and only
// if the target lacks it. The engine fetches the target's recipe in the
// same concurrent round trip as the survivors'; before it runs, the file
// is planned: every distinct row takes a candidate entry from the
// target's recipe when it has a usable one, or else from the session memo
// of rows this Client rebuilt, and batched ownership queries ask the
// target which candidate shares it holds (confirm). Only the other rows are
// read, verified and rebuilt, which saves their downloads; every other
// secret takes the entry of its row. A share rebuilt against the target's
// recipe must reproduce the fingerprint that recipe holds for it, or the
// repair aborts before sending it. The recipe is written through backup's
// putRecipe — from the recipes the engine already fetched, no second
// GetRecipe — only when the target had none it could use, and rows enter
// the session memo only once the target acknowledged
// their shares and the recipe. A recipe written here carries the version
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
	candidates := make([]metadata.RecipeEntry, e.numSecrets)
	plan := c.planRepair(e, candidates)
	if err := plan.confirm(target, candidates); err != nil {
		return nil, err
	}
	e.restrictTo(plan.seqs())
	up := c.newUploader(target, &backupCounters{})
	err = e.run(func(d decodedSecret) error {
		if e.held != nil && d.fp != candidates[d.seq].ShareFP {
			c.sharePool.Put(d.data)
			return fmt.Errorf("client: rebuilt share of secret %d does not reproduce its recipe fingerprint", d.seq)
		}
		return up.add(shareItem{seq: d.seq, fp: d.fp, data: d.data, secretSize: uint32(d.secretSize)})
	})
	if err != nil {
		up.recycle() // the aborted batch still holds pool buffers
		return nil, err
	}
	if err := up.flush(); err != nil {
		return nil, err
	}
	reused := int64(len(plan.held) + len(plan.repeats))
	stats := &RepairStats{
		Secrets:        int64(e.numSecrets),
		SecretsReused:  reused,
		SharesRebuilt:  int64(len(plan.rebuild)),
		BytesReuploads: up.counters.transferredShareBytes.Load(),
		Restore:        *e.stats(),
	}
	// The stats describe the file, not only what the engine read of it.
	for _, r := range plan.held {
		up.record(r.seq, candidates[r.seq])
		stats.Restore.Bytes += int64(e.sizes[r.seq].SecretSize)
	}
	for _, r := range plan.repeats {
		up.record(r[0], up.entries[r[1]])
		stats.Restore.Bytes += int64(e.sizes[r[0]].SecretSize)
	}
	stats.Restore.Secrets += reused
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
	for _, r := range plan.rebuild {
		c.repairMemo.Add(string(r.key[:]), up.entries[r.seq])
	}
	return stats, nil
}
