package client

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
)

// RepairStats reports a share-rebuild operation.
type RepairStats struct {
	// Secrets counts every secret of the file; SecretsReused those among
	// them whose row the target confirmed it holds, or which repeat a row
	// earlier in the file, so that nothing was read or sent for them.
	Secrets        int64
	SecretsReused  int64
	SharesRebuilt  int64
	BytesReuploads int64
	// Restore carries the read-side stats of the underlying streaming
	// read (downloaded bytes, subset retries, failovers).
	Restore RestoreStats
}

// rebuild is Repair's upload sink. It runs the engine in rebuild mode —
// the decode workers check each secret's k shares against their recipe
// fingerprints, rebuild share e.target of it with one Reed-Solomon row
// and fingerprint it — and, in sequence order,
// shows each result to accept, whose error aborts the repair, before
// batching the share to target. Share buffers come from the client's
// share pool and go back to it once their batch has flushed.
func (e *restoreEngine) rebuild(target *cloudConn, accept func(d decodedSecret) error) (*RepairStats, error) {
	stats := &RepairStats{}
	batch := shareBatch{pool: &e.c.sharePool, send: func(_ []metadata.Fingerprint, shares []protocol.ShareUpload) error {
		return target.putShares(shares)
	}}
	err := e.run(func(d decodedSecret) error {
		if err := accept(d); err != nil {
			batch.pool.Put(d.data)
			return err
		}
		stats.Secrets++
		stats.SharesRebuilt++
		stats.BytesReuploads += int64(len(d.data))
		return batch.add(d.fp, protocol.ShareUpload{SecretSeq: d.seq, SecretSize: uint32(d.secretSize), Data: d.data})
	})
	if err != nil {
		batch.recycle() // the aborted batch still holds pool buffers
		return nil, err
	}
	if err := batch.flush(); err != nil {
		return nil, err
	}
	stats.Restore = *e.stats()
	return stats, nil
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
// in-order sink batches the shares to the target, which must be connected
// at the same cloud index and re-fingerprints what it receives (§3.3).
// Memory held is O(window).
//
// Each distinct row (see rowKey) goes through that at most once, and only
// if the target lacks it. The engine fetches the target's recipe in the
// same concurrent round trip as the survivors'; before it runs, the file
// is planned: every distinct row takes a candidate entry from the
// target's recipe when it has a usable one, or else from the session memo
// of rows this Client rebuilt, and batched ownership queries ask the
// target which candidate shares it holds (confirm). Only the other rows are
// read, verified, rebuilt and sent; every other secret takes the entry of
// its row. A share rebuilt against the target's recipe must reproduce the
// fingerprint that recipe holds for it, or the repair aborts before
// sending it. The recipe is written — from the recipes the engine already
// fetched, no second GetRecipe — only when the target had none it could
// use, and rows enter the session memo only once the target acknowledged
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
	entries := make([]metadata.RecipeEntry, e.numSecrets)
	plan := c.planRepair(e, entries)
	if err := plan.confirm(target, entries); err != nil {
		return nil, err
	}
	e.restrictTo(plan.seqs())
	stats, err := e.rebuild(target, func(d decodedSecret) error {
		if e.held != nil && d.fp != entries[d.seq].ShareFP {
			return fmt.Errorf("client: rebuilt share of secret %d does not reproduce its recipe fingerprint", d.seq)
		}
		entries[d.seq] = metadata.RecipeEntry{
			ShareFP:    d.fp,
			ShareSize:  uint32(len(d.data)),
			SecretSize: uint32(d.secretSize),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The stats describe the file, not only what the engine read of it.
	for _, r := range plan.held {
		stats.Restore.Bytes += int64(e.sizes[r.seq].SecretSize)
	}
	for _, r := range plan.repeats {
		entries[r[0]] = entries[r[1]]
		stats.Restore.Bytes += int64(e.sizes[r[0]].SecretSize)
	}
	stats.SecretsReused = int64(len(plan.held) + len(plan.repeats))
	stats.Secrets += stats.SecretsReused
	stats.Restore.Secrets += stats.SecretsReused
	// Same cross-check Restore applies, over every secret, rebuilt or
	// reused: a recipe whose FileSize disagrees with the sum of its secret
	// sizes must fail loudly, not be copied onto the target.
	if uint64(stats.Restore.Bytes) != e.fileSize {
		return nil, fmt.Errorf("client: repair read %d bytes, recipe says %d", stats.Restore.Bytes, e.fileSize)
	}
	if e.held == nil {
		targetPath, err := c.pathForCloud(cloud, path)
		if err != nil {
			return nil, err
		}
		recipe := &metadata.Recipe{
			FileMeta: metadata.FileMeta{Path: targetPath, FileSize: e.fileSize, NumSecrets: e.numSecrets},
			Version:  e.version,
			Entries:  entries,
		}
		if _, err := target.call(protocol.MsgPutRecipe, recipe.Marshal(), protocol.MsgPutOK); err != nil {
			return nil, err
		}
	}
	for _, r := range plan.rebuild {
		c.repairMemo.Add(string(r.key[:]), entries[r.seq])
	}
	return stats, nil
}
