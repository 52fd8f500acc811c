package index

import (
	"cdstore/internal/metadata"
)

// This file holds the scrub/repair side of the share index: marking
// entries whose container bytes failed integrity verification, listing
// them for the repair scheduler, and counting completed repairs.
//
// A damaged entry keeps its refs — every recipe referencing the
// share stays valid, only the bytes are gone — and loses its Container
// reference (the scrubber quarantines or deletes the bytes before
// marking). TryReserveShare treats such an entry as reservable, so the
// first repair upload of the fingerprint re-places the bytes through the
// normal reserve/append/commit path and clears the flag at commit.

// MarkSharesDamaged flags the committed entries for fps as damaged and
// drops their container references. Fingerprints that are unindexed or
// hold an in-flight reservation are skipped (a reservation means a fresh
// upload of the bytes is already in progress), as are entries already
// flagged. It returns the number of entries newly marked.
func (ix *Index) MarkSharesDamaged(fps []metadata.Fingerprint) (int, error) {
	marked := 0
	err := ix.eachShard(fps, func(sh *shard, pos []int32) error {
		for _, p := range pos {
			if _, inflight := sh.pending[fps[p]]; inflight {
				continue
			}
			v, err := sh.peek(fps[p])
			if err == ErrNotFound || (err == nil && v.damaged()) {
				continue
			}
			if err != nil {
				return err
			}
			if err := sh.put(fps[p], v.withDamaged().raw); err != nil {
				return err
			}
			marked++
		}
		return nil
	})
	return marked, err
}

// DamagedShares returns every entry currently flagged as damaged, shard
// by shard. The repair scheduler maps these to affected files.
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
