package client

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
	"cdstore/internal/secretshare"
)

// ErrSchemeNotRebuildable is returned by Repair and RepairEntries, before
// anything is read or uploaded, when the client's scheme does not
// implement secretshare.Rebuilder (SSSS, SSMS, RSSS, IDA): their shares
// are not rows of one Reed-Solomon codeword, so a lost share cannot be
// recomputed from the surviving ones.
var ErrSchemeNotRebuildable = errors.New("client: scheme cannot rebuild a lost share from the surviving ones")

// RepairStats reports a share-rebuild operation.
type RepairStats struct {
	// Secrets counts every secret of the file; SecretsReused those among
	// them whose row had already been rebuilt — earlier in the file or
	// earlier in the session — so that nothing was read or sent for them.
	Secrets        int64
	SecretsReused  int64
	SharesRebuilt  int64
	BytesReuploads int64
	// Restore carries the read-side stats of the underlying streaming
	// read (downloaded bytes, subset retries, failovers).
	Restore RestoreStats
}

// repairTarget validates a repair request: the cloud index, its
// connection, and that the scheme can rebuild.
func (c *Client) repairTarget(cloud int) (*cloudConn, secretshare.Rebuilder, error) {
	if cloud < 0 || cloud >= c.opts.N {
		return nil, nil, fmt.Errorf("client: cloud index %d out of range", cloud)
	}
	target := c.conns[cloud]
	if target == nil {
		return nil, nil, fmt.Errorf("client: server for cloud %d not connected", cloud)
	}
	rb, ok := c.scheme.(secretshare.Rebuilder)
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrSchemeNotRebuildable, c.scheme.Name())
	}
	return target, rb, nil
}

// rebuild is the one upload sink of Repair and RepairEntries. It runs the
// engine in rebuild mode — the decode workers verify each secret, rebuild
// share `cloud` of it with one Reed-Solomon row and fingerprint it — and,
// in sequence order, shows each result to accept, whose error aborts the
// repair, before batching the share to target. Share buffers come from
// the client's share pool and go back to it once their batch has flushed.
func (e *restoreEngine) rebuild(rb secretshare.Rebuilder, cloud int, target *cloudConn,
	accept func(d decodedSecret) error) (*RepairStats, error) {
	e.rebuilder, e.rebuildIdx = rb, cloud
	pool := &e.c.sharePool
	stats := &RepairStats{}
	var batch []protocol.ShareUpload
	batchBytes := 0
	recycleBatch := func() {
		for i := range batch {
			pool.Put(batch[i].Data)
		}
		batch = batch[:0]
		batchBytes = 0
	}
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := target.putShares(batch)
		recycleBatch()
		return err
	}
	err := e.run(func(d decodedSecret) error {
		if err := accept(d); err != nil {
			pool.Put(d.data)
			return err
		}
		stats.Secrets++
		batch = append(batch, protocol.ShareUpload{
			SecretSeq:  d.seq,
			SecretSize: uint32(d.secretSize),
			Data:       d.data,
		})
		batchBytes += len(d.data)
		stats.SharesRebuilt++
		stats.BytesReuploads += int64(len(d.data))
		if batchBytes >= protocol.BatchBytes {
			return flush()
		}
		return nil
	})
	if err != nil {
		recycleBatch() // the aborted batch still holds pool buffers
		return nil, err
	}
	if err := flush(); err != nil {
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
// dispersal, and the very same dispersal under randomised AONT-RS — and
// therefore the same secret, of the same size, with the same share on the
// target.
type rowKey metadata.Fingerprint

// noTarget is the target a restore's row keys are built with.
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
// those whose recipe entry it can copy. rebuild and memoised are in
// ascending sequence order.
type repairPlan struct {
	// rebuild lists the rows the session memo did not hold: the engine's
	// restriction, and what enters the memo once the repair succeeded.
	rebuild []planRow
	// memoised lists the rows whose entry came out of the session memo.
	memoised []planRow
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

// planRepair builds the plan for the file e reads, filling entries — the
// target's recipe under construction — wherever the memo holds the row.
// It costs one hash and one map probe per secret, and one memo probe per
// distinct row.
func (c *Client) planRepair(e *restoreEngine, target int, entries []metadata.RecipeEntry) *repairPlan {
	keys := e.rowKeyer(target)
	p := &repairPlan{}
	rows := make(map[rowKey]uint64)
	for seq := range entries {
		row := planRow{key: keys.at(uint64(seq)), seq: uint64(seq)}
		if first, repeat := rows[row.key]; repeat {
			p.repeats = append(p.repeats, [2]uint64{row.seq, first})
			continue
		}
		rows[row.key] = row.seq
		if memoised, ok := c.repairMemo.Get(string(row.key[:])); ok {
			entries[seq] = memoised.(metadata.RecipeEntry)
			p.memoised = append(p.memoised, row)
		} else {
			p.rebuild = append(p.rebuild, row)
		}
	}
	return p
}

// confirmMemoised asks the target, in one batched container query, whether
// it still holds the share of every memoised row for this user — it
// answers no for a share that went with a deleted file and for one whose
// bytes were quarantined since — and moves the rows it does not hold to
// the rebuild list, so a memo hit never stands in for bytes that are gone.
// (Restore's memo of decoded secrets needs no such question: a hit there
// hands back bytes this session verified and claims nothing about what
// the clouds hold now, where a hit here claims the target holds a share.)
func (p *repairPlan) confirmMemoised(target *cloudConn, entries []metadata.RecipeEntry) error {
	held := p.memoised[:0]
	for lo := 0; lo < len(p.memoised); lo += containerQueryBatch {
		batch := p.memoised[lo:min(lo+containerQueryBatch, len(p.memoised))]
		fps := make([]metadata.Fingerprint, len(batch))
		for i, r := range batch {
			fps[i] = entries[r.seq].ShareFP
		}
		names, err := fetchShareContainers(target, fps)
		if err != nil {
			return err
		}
		for i, r := range batch {
			if names[i] != "" {
				held = append(held, r)
			} else {
				p.rebuild = append(p.rebuild, r)
			}
		}
	}
	if len(held) < len(p.memoised) {
		slices.SortFunc(p.rebuild, func(a, b planRow) int { return cmp.Compare(a.seq, b.seq) })
	}
	p.memoised = held
	return nil
}

// Repair rebuilds the shares of a failed cloud for one backup, per §3.1:
// "In the presence of cloud failures, CDStore reconstructs original
// secrets and then rebuilds the lost shares as in Reed-Solomon codes."
//
// It runs on the same streaming engine as Restore: each secret's k
// surviving shares arrive through the pipelined windows, a decode worker
// reconstructs and verifies the package exactly as a restore would
// (integrity hash, zero padding, §3.2 subset retry on failure) and then
// computes share `failedCloud` of that verified package directly — a
// copy of one data shard or a single parity row. The secret is never
// re-dispersed: a package that passed the checks is bit for bit the one
// the original backup encoded, so this is what re-encoding would produce,
// and it holds for randomised AONT-RS too, whose key is recovered from
// the survivors. CPU per secret is one decode, one RS row and one
// fingerprint. The in-order sink fills the rebuilt cloud's recipe (the
// recipes the engine already fetched supply the sizes; no second
// GetRecipe) and batches the shares to the replacement server, which must
// already be connected at the same cloud index and re-fingerprints what
// it receives (§3.3). Memory held is O(window).
//
// Each distinct row (see rowKey) goes through that once per session, not
// once per reference: before the engine runs the file is planned, only
// rows neither earlier in the file nor already rebuilt by this Client are
// read, verified, rebuilt and sent, and every other secret takes the
// recipe entry of the first occurrence. Rows enter the session memo only
// once the target has acknowledged their shares and the file's recipe,
// and a row leaves the plan's memo hits for its rebuild list unless the
// target confirms it still holds the share (confirmMemoised) — deleted
// with its file, or quarantined, it is rebuilt again. Traffic and time
// therefore follow the stored bytes the lost cloud held for this user,
// not the logical ones.
//
// A scheme that cannot rebuild fails with ErrSchemeNotRebuildable before
// anything is transferred.
func (c *Client) Repair(path string, failedCloud int) (*RepairStats, error) {
	target, rb, err := c.repairTarget(failedCloud)
	if err != nil {
		return nil, err
	}
	e, err := c.newRestoreEngine(path, failedCloud)
	if err != nil {
		return nil, err
	}
	targetPath, err := c.pathForCloud(failedCloud, path)
	if err != nil {
		return nil, err
	}
	newRecipe := &metadata.Recipe{
		FileMeta: metadata.FileMeta{
			Path:       targetPath,
			FileSize:   e.fileSize,
			NumSecrets: e.numSecrets,
		},
		Entries: make([]metadata.RecipeEntry, e.numSecrets),
	}
	entries := newRecipe.Entries
	plan := c.planRepair(e, failedCloud, entries)
	if err := plan.confirmMemoised(target, entries); err != nil {
		return nil, err
	}
	e.restrictTo(plan.seqs())
	stats, err := e.rebuild(rb, failedCloud, target, func(d decodedSecret) error {
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
	for _, r := range plan.memoised {
		stats.Restore.Bytes += int64(entries[r.seq].SecretSize)
	}
	for _, r := range plan.repeats {
		entries[r[0]] = entries[r[1]]
		stats.Restore.Bytes += int64(entries[r[0]].SecretSize)
	}
	stats.SecretsReused = int64(len(plan.memoised) + len(plan.repeats))
	stats.Secrets += stats.SecretsReused
	stats.Restore.Secrets += stats.SecretsReused
	// Same cross-check Restore applies, over every secret, rebuilt or
	// reused: a recipe whose FileSize disagrees with the sum of its secret
	// sizes must fail loudly, not be copied onto the replacement cloud.
	if uint64(stats.Restore.Bytes) != e.fileSize {
		return nil, fmt.Errorf("client: repair read %d bytes, recipe says %d", stats.Restore.Bytes, e.fileSize)
	}
	if _, err := target.call(protocol.MsgPutRecipe, newRecipe.Marshal(), protocol.MsgPutOK); err != nil {
		return nil, err
	}
	for _, r := range plan.rebuild {
		c.repairMemo.Add(string(r.key[:]), entries[r.seq])
	}
	return stats, nil
}

// RepairEntries heals specific damaged shares on one cloud without
// rebuilding the whole file: only stripes whose share fingerprints are
// in damaged are re-read from k other clouds and share `cloud` of each
// rebuilt — through the same decode-verify-one-row path as Repair — and
// re-uploaded. A rebuilt share is the share the backup stored, so it must
// reproduce its recipe fingerprint exactly; one that does not aborts the
// repair. The server's repair-reserve path then heals the damaged index
// entry in place and the recipe is untouched (no PutRecipe round trip).
// The cloud's recipe must still be readable there; a lost recipe needs a
// full Repair.
func (c *Client) RepairEntries(path string, cloud int, damaged []metadata.Fingerprint) (*RepairStats, error) {
	target, rb, err := c.repairTarget(cloud)
	if err != nil {
		return nil, err
	}
	targetPath, err := c.pathForCloud(cloud, path)
	if err != nil {
		return nil, err
	}
	reply, err := target.call(protocol.MsgGetRecipe, protocol.EncodeString(targetPath), protocol.MsgRecipe)
	if err != nil {
		return nil, fmt.Errorf("client: recipe for %q on cloud %d: %w (a lost recipe needs a full Repair)", path, cloud, err)
	}
	recipe, err := metadata.UnmarshalRecipe(reply)
	if err != nil {
		return nil, err
	}
	// One stripe per distinct damaged fingerprint: any secret that
	// produced the share rebuilds it (dedup means many sequence numbers
	// can reference one share; reading one of them suffices).
	want := make(map[metadata.Fingerprint]bool, len(damaged))
	for _, fp := range damaged {
		want[fp] = true
	}
	var seqs []uint64
	for seq := range recipe.Entries {
		fp := recipe.Entries[seq].ShareFP
		if want[fp] {
			delete(want, fp)
			seqs = append(seqs, uint64(seq))
		}
	}
	e, err := c.newRestoreEngine(path, cloud)
	if err != nil {
		return nil, err
	}
	e.restrictTo(seqs)
	return e.rebuild(rb, cloud, target, func(d decodedSecret) error {
		if d.fp != recipe.Entries[d.seq].ShareFP {
			return fmt.Errorf("client: rebuilt share of secret %d does not reproduce its recipe fingerprint", d.seq)
		}
		return nil
	})
}
