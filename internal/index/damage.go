package index

import (
	"cdstore/internal/metadata"
)

// This file holds the maintenance side of the share index: marking
// entries whose container bytes failed integrity verification, moving
// entries whose container was rewritten (GC, quarantine), listing the
// damaged ones for the repair scheduler, and counting completed repairs.
//
// A damaged entry keeps its refs — every recipe referencing the
// share stays valid, only the bytes are gone — and loses its Container
// reference (the scrubber drops the bytes from storage in the same
// quarantine step). TryReserveShare treats such an entry as reservable, so the
// first repair upload of the fingerprint re-places the bytes through the
// normal reserve/append/commit path and clears the flag at commit.

// casShares is the compare-and-set under both maintenance operations
// below: of fps, the entries that are committed, undamaged, still placed
// in container in and not under an in-flight reservation (a fresh upload
// of the bytes is in progress) are replaced by edit's encoding, one
// append per touched stripe under its lock; any other entry — unindexed,
// already flagged, deduplicated into a different container since the
// caller looked — is left as it is. It returns the number rewritten.
func (ix *Index) casShares(fps []metadata.Fingerprint, in string, edit func(entryView) entryView) (int, error) {
	changed := 0
	var batch writeBatch
	err := ix.eachShard(fps, func(sh *shard, pos []int32) error {
		batch.reset()
		err := eachDistinct(fps, pos, func(fp metadata.Fingerprint, _ uint32) error {
			if _, inflight := sh.pending[fp]; inflight {
				return nil
			}
			v, err := sh.peek(fp)
			if err == ErrNotFound {
				return nil
			}
			if err == nil && !v.damaged() && string(v.container()) == in {
				batch.add(fp, edit(v).raw)
			}
			return err
		})
		if err != nil {
			return err
		}
		changed += len(batch.keys)
		return sh.db.Append(batch.keys, batch.values)
	})
	return changed, ix.durable(err)
}

// MarkSharesDamaged flags the entries for fps that still point at
// container in as damaged and drops their container references; see
// casShares for what is skipped. It returns the number newly marked.
func (ix *Index) MarkSharesDamaged(fps []metadata.Fingerprint, in string) (int, error) {
	return ix.casShares(fps, in, entryView.withDamaged)
}

// RepointShares moves the entries for fps that still point at container
// from to container to — the index half of a container rewrite. Size,
// ref order and counts are untouched; see casShares for what is skipped.
// It returns the number of entries moved.
func (ix *Index) RepointShares(fps []metadata.Fingerprint, from, to string) (int, error) {
	return ix.casShares(fps, from, func(v entryView) entryView { return v.withContainer(to) })
}

// DamagedShares returns every entry currently flagged as damaged, in
// fingerprint order. The repair scheduler maps these to affected files.
func (ix *Index) DamagedShares() ([]*ShareEntry, error) {
	var out []*ShareEntry
	err := ix.ScanShares(func(e *ShareEntry) error {
		if e.Damaged {
			out = append(out, e)
		}
		return nil
	})
	return out, err
}

// RepairedShares returns the number of damaged entries healed since open:
// reservations won against a damaged entry that subsequently committed
// fresh bytes. The e2e acceptance assertion "re-dispersed to full (n,k)
// health" pins this counter against the damage count.
func (ix *Index) RepairedShares() uint64 {
	return ix.repairs.Load()
}
