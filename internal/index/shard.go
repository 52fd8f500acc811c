package index

import (
	"fmt"

	"cdstore/internal/metadata"
)

// This file holds the two-phase upload API that keeps container I/O out
// of the shard critical sections. The server's put path, per batch:
//
//	st, _ := ix.TryReserveShare(fp, user, size) // each share: shard lock only, never blocks
//	names, _ := store.AddShares(user, reserved) // container I/O, no index lock
//	ix.CommitShares(fps, names)                 // one lock + one WAL append per touched stripe, one durability point
//
// with AbortShare on every reservation if a later step fails. The
// tests hold the same protocol one fingerprint at a time (ReserveShare /
// CommitShare, reference_test.go): the reference the batched forms are
// tested against.
//
// A session that uploads a share whose fingerprint another session has
// reserved but not yet committed WAITS for the reservation to resolve
// (commit or abort) and then re-classifies. Nobody is ever recorded as
// an owner of bytes that are not durably placed: if the reserver's
// container append fails, the abort wakes the waiters, one of them wins
// the next reservation, and — since every uploader still holds the
// share bytes — the share is stored by whoever succeeds. Two sessions
// uploading the same new share therefore still store it exactly once,
// the invariant the old single global mutex enforced, without any
// session holding an index lock across backend writes.
//
// DEADLOCK RULE: a caller must not wait (WaitShare) while holding
// uncommitted reservations of its own — two batches holding
// reservations and waiting on each other's would deadlock. The server
// therefore classifies whole batches with the non-blocking
// TryReserveShare, commits its wins, and only then resolves contested
// fingerprints — optimistically re-running TryReserveShare (the racing
// reservation has usually resolved by then), falling back to WaitShare
// only when a full rescan makes no progress, holding nothing either way.

// ReserveStatus is TryReserveShare's classification of one upload.
type ReserveStatus int

const (
	// StatusReserved: the caller won the reservation and must place the
	// bytes then CommitShares (or AbortShare).
	StatusReserved ReserveStatus = iota
	// StatusDuplicate: the share is committed; ownership was recorded,
	// the caller stores nothing.
	StatusDuplicate
	// StatusPending: another session's reservation is in flight; the
	// caller must retry once it resolves (see WaitShare).
	StatusPending
)

// TryReserveShare decides the fate of one uploaded share atomically
// under its shard lock, never blocking. On StatusReserved the
// reservation records userID as an owner at count 0 (the §4.4 upload
// marker).
func (ix *Index) TryReserveShare(fp metadata.Fingerprint, userID uint64, size uint32) (ReserveStatus, error) {
	sh := &ix.shards[shardOf(fp)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.pending[fp]; ok {
		return StatusPending, nil
	}
	v, err := sh.peek(fp)
	switch {
	case err == ErrNotFound:
		sh.pending[fp] = &pendingShare{view: newEntry(size, userID), reserver: userID, done: make(chan struct{})}
		return StatusReserved, nil
	case err != nil:
		return StatusPending, err
	case v.damaged():
		// Repair-reserve: the fingerprint is indexed but its bytes failed
		// scrub verification. The uploader re-places the bytes; the
		// existing refs are preserved (other users' recipes still
		// reference the share) and the damaged flag clears when the fresh
		// bytes commit. An abort leaves the persisted entry damaged, so
		// the next upload retries the repair.
		sh.pending[fp] = &pendingShare{view: v.withRef(userID, 0), reserver: userID, done: make(chan struct{}), repair: true}
		return StatusReserved, nil
	case v.owned(userID):
		return StatusDuplicate, nil
	default:
		return StatusDuplicate, durable(ix.shares, sh.put(fp, v.withRef(userID, 0).raw))
	}
}

// WaitShare blocks until fp has no in-flight reservation. It makes no
// classification of its own — after it returns the caller re-runs
// TryReserveShare (the fingerprint may have been committed, aborted, or
// even re-reserved by a third session in the meantime). Callers batching
// optimistically (the server's contested pass) only fall back to this
// after a full non-blocking rescan makes no progress, and — per the
// deadlock rule above — never while holding reservations of their own.
func (ix *Index) WaitShare(fp metadata.Fingerprint) {
	sh := &ix.shards[shardOf(fp)]
	sh.mu.Lock()
	pe, ok := sh.pending[fp]
	if !ok {
		sh.mu.Unlock()
		return
	}
	done := pe.done
	sh.mu.Unlock()
	<-done
}

// CommitShares persists reserved shares' entries now that their bytes
// live in the named containers, and wakes any sessions waiting on the
// reservations (they re-classify and find a committed duplicate). The
// server's put path commits each batch this way: fingerprints are
// grouped by stripe, each touched stripe's lock is taken exactly once and
// its group appended to the share store in one piece, and the batch
// reaches durability once — under SyncWAL one fsync, not one per share
// or per touched stripe — before it is acknowledged.
// A stripe's reservations resolve when its group is appended, so a
// waiter can read the entry as committed a moment before the batch is
// durable; whatever it then records (ownership, a reference) is a later
// record of the same log, whose durability point covers this batch's.
//
// containers[i] names the container holding fps[i]'s bytes. Every
// fingerprint must hold an in-flight reservation owned by the caller.
// On error, reservations in the failed stripe's group (and in groups not
// yet reached) remain pending — the caller still owns them and must
// AbortShare each uncommitted fingerprint, which wakes waiters just as
// a container-append failure would.
func (ix *Index) CommitShares(fps []metadata.Fingerprint, containers []string) error {
	if len(fps) != len(containers) {
		return fmt.Errorf("index: CommitShares got %d fingerprints, %d containers", len(fps), len(containers))
	}
	var batch writeBatch
	return durable(ix.shares, ix.eachShard(fps, func(sh *shard, pos []int32) error {
		batch.reset()
		for _, p := range pos {
			pe, ok := sh.pending[fps[p]]
			if !ok {
				return fmt.Errorf("index: commit of unreserved share %s", fps[p])
			}
			batch.add(fps[p], pe.view.withContainer(containers[p]).raw)
		}
		// Group write first: a reservation resolves only with its entry
		// readable.
		if err := sh.db.Append(batch.keys, batch.values); err != nil {
			return err
		}
		for _, p := range pos {
			if pe, ok := sh.pending[fps[p]]; ok {
				delete(sh.pending, fps[p])
				close(pe.done)
				if pe.repair {
					ix.repairs.Add(1)
				}
			}
		}
		return nil
	}))
}

// AbortShare drops a reservation whose container append failed and
// wakes any waiting sessions. Because uploaders of an in-flight
// fingerprint wait rather than deduplicate against the reservation, no
// other session has taken a dependency on the aborted share: a woken
// waiter simply reserves and stores its own copy of the bytes.
func (ix *Index) AbortShare(fp metadata.Fingerprint) {
	sh := &ix.shards[shardOf(fp)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if pe, ok := sh.pending[fp]; ok {
		delete(sh.pending, fp)
		close(pe.done)
	}
}

// AddShareRefs settles a recipe's reference counts: userID gains one
// reference per occurrence in fps. Repeats of a fingerprint coalesce
// into one read-modify-write (delta = multiplicity), and each touched
// stripe appends its group in one piece under one lock hold.
// Every fingerprint must exist (committed or reserved); on a missing one
// the error reports it and the batch stops with that shard's group
// unapplied and earlier shards' increments applied — callers treat this
// as a fatal recipe error.
func (ix *Index) AddShareRefs(fps []metadata.Fingerprint, userID uint64) error {
	var batch writeBatch
	return durable(ix.shares, ix.eachShard(fps, func(sh *shard, pos []int32) error {
		batch.reset()
		sawPending := false
		err := eachDistinct(fps, pos, func(fp metadata.Fingerprint, m uint32) error {
			if _, ok := sh.pending[fp]; ok {
				sawPending = true
				return nil
			}
			v, err := sh.peek(fp)
			if err != nil {
				return fmt.Errorf("index: add ref %s: %w", fp, err)
			}
			batch.add(fp, v.withRef(userID, m).raw)
			return nil
		})
		if err == nil {
			err = sh.db.Append(batch.keys, batch.values)
		}
		if err != nil || !sawPending {
			return err
		}
		// Only the reserving session itself can reach this (its own recipe
		// cannot arrive before its PutShares commits, and other sessions
		// wait in WaitShare), but stay correct if it does — after the
		// group is known good, so a failed shard stays wholly unapplied.
		return eachDistinct(fps, pos, func(fp metadata.Fingerprint, m uint32) error {
			if pe, ok := sh.pending[fp]; ok {
				pe.view = pe.view.withRef(userID, m)
			}
			return nil
		})
	}))
}

// ReleaseShareRefs takes one of userID's references per occurrence in
// fps, one lock hold per touched stripe, repeats coalesced as in
// AddShareRefs. Fingerprints that are no longer indexed are skipped
// (deletion is idempotent).
func (ix *Index) ReleaseShareRefs(fps []metadata.Fingerprint, userID uint64) error {
	return durable(ix.shares, ix.eachShard(fps, func(sh *shard, pos []int32) error {
		return eachDistinct(fps, pos, func(fp metadata.Fingerprint, m uint32) error {
			if err := sh.releaseLocked(fp, userID, m); err != nil && err != ErrNotFound {
				return err
			}
			return nil
		})
	}))
}
