package client

import (
	"errors"
	"fmt"

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
	Secrets        int64
	SharesRebuilt  int64
	BytesReuploads int64
	// Restore carries the read-side stats of the underlying streaming
	// read (downloaded bytes, cache hits, subset retries, failovers).
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
// in sequence order, asks accept what to do with each result: an error
// aborts the repair, upload=false books the secret without sending its
// share (a duplicate), upload=true batches the share to target. Share
// buffers come from the client's share pool and go back to it once their
// batch has flushed, or at once when not uploaded.
func (e *restoreEngine) rebuild(rb secretshare.Rebuilder, cloud int, target *cloudConn,
	accept func(d decodedSecret) (upload bool, err error)) (*RepairStats, error) {
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
		_, err := target.call(protocol.MsgPutShares, protocol.EncodeShareBatch(batch), protocol.MsgPutOK)
		recycleBatch()
		return err
	}
	err := e.run(func(d decodedSecret) error {
		upload, err := accept(d)
		if err != nil {
			pool.Put(d.data)
			return err
		}
		stats.Secrets++
		if !upload {
			pool.Put(d.data)
			return nil
		}
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
// GetRecipe), suppresses duplicate shares by fingerprint as Backup's
// uploader does, and batches the rest to the replacement server, which
// must already be connected at the same cloud index and re-fingerprints
// what it receives (§3.3). Memory held is O(window).
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
	seen := make(map[metadata.Fingerprint]bool)
	stats, err := e.rebuild(rb, failedCloud, target, func(d decodedSecret) (bool, error) {
		newRecipe.Entries[d.seq] = metadata.RecipeEntry{
			ShareFP:    d.fp,
			ShareSize:  uint32(len(d.data)),
			SecretSize: uint32(d.secretSize),
		}
		if seen[d.fp] {
			return false, nil
		}
		seen[d.fp] = true
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	// Same cross-check Restore applies: a recipe whose FileSize disagrees
	// with the sum of its secret sizes must fail loudly, not be copied
	// onto the replacement cloud.
	if uint64(stats.Restore.Bytes) != e.fileSize {
		return nil, fmt.Errorf("client: repair read %d bytes, recipe says %d", stats.Restore.Bytes, e.fileSize)
	}
	if _, err := target.call(protocol.MsgPutRecipe, newRecipe.Marshal(), protocol.MsgPutOK); err != nil {
		return nil, err
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
	if len(seqs) == 0 {
		return &RepairStats{}, nil
	}
	e, err := c.newRestoreEngine(path, cloud)
	if err != nil {
		return nil, err
	}
	e.restrictTo(seqs)
	return e.rebuild(rb, cloud, target, func(d decodedSecret) (bool, error) {
		if d.fp != recipe.Entries[d.seq].ShareFP {
			return false, fmt.Errorf("client: rebuilt share of secret %d does not reproduce its recipe fingerprint", d.seq)
		}
		return true, nil
	})
}
