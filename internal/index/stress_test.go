package index

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cdstore/internal/metadata"
)

// TestConcurrentRefsBalanceToZero hammers the sharded index from 16
// goroutines over overlapping fingerprints: every goroutine acquires and
// then releases the same number of references per fingerprint, so after
// the storm the only thing left on any entry must be its count-0 upload
// markers — a total reference count of exactly zero. Run under -race
// this is the proof the lock striping actually guards every
// read-modify-write. (Fingerprints are SHA-256 outputs, so 96 of them
// collide heavily across the 64 shards.)
func TestConcurrentRefsBalanceToZero(t *testing.T) {
	ix := openTestIndex(t)
	const (
		goroutines = 16
		fpCount    = 96
		rounds     = 30
	)
	fps := make([]metadata.Fingerprint, fpCount)
	for i := range fps {
		fps[i] = fp(fmt.Sprintf("stress-%d", i))
		// Seed every share as uploaded by a marker user (count 0).
		if reserved, err := ix.ReserveShare(fps[i], 999, 100); err != nil || !reserved {
			t.Fatalf("seed reserve %d: reserved=%v err=%v", i, reserved, err)
		}
		if err := ix.CommitShare(fps[i], "c-seed"); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(userID uint64) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Walk the fingerprints in a per-goroutine order so the
				// shard locks interleave differently per goroutine.
				for i := 0; i < fpCount; i++ {
					f := fps[(i*int(userID)+r)%fpCount]
					if err := ix.AddShareRefs([]metadata.Fingerprint{f}, userID); err != nil {
						errCh <- fmt.Errorf("user %d add: %w", userID, err)
						return
					}
					if owned, err := ownedBy(ix, f, userID); err != nil || !owned {
						errCh <- fmt.Errorf("user %d lost ownership mid-round: %v %v", userID, owned, err)
						return
					}
				}
				for i := 0; i < fpCount; i++ {
					f := fps[(i*int(userID)+r)%fpCount]
					if err := ix.ReleaseShareRefs([]metadata.Fingerprint{f}, userID); err != nil {
						errCh <- fmt.Errorf("user %d release: %w", userID, err)
						return
					}
				}
			}
			errCh <- nil
		}(uint64(g + 1))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Every add was matched by a release: total refcount must be zero
	// and every entry must survive (the marker user never released).
	entries := 0
	err := ix.ScanShares(func(e *ShareEntry) error {
		entries++
		for u, c := range e.Refs {
			if c != 0 {
				return fmt.Errorf("share %s: user %d left refcount %d", e.Fingerprint, u, c)
			}
		}
		if _, ok := e.Refs[999]; !ok {
			return fmt.Errorf("share %s lost its upload marker", e.Fingerprint)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if entries != fpCount {
		t.Fatalf("index holds %d shares after the storm, want %d", entries, fpCount)
	}
}

// TestConcurrentReserveSingleWinner races 16 goroutines reserving the
// same new fingerprints: for each fingerprint exactly one caller may win
// the reservation (and must store the share), everyone else must be told
// it is a duplicate — the invariant that prevents double-stored shares
// without a global mutex.
func TestConcurrentReserveSingleWinner(t *testing.T) {
	ix := openTestIndex(t)
	const (
		goroutines = 16
		fpCount    = 64
	)
	fps := make([]metadata.Fingerprint, fpCount)
	for i := range fps {
		fps[i] = fp(fmt.Sprintf("race-%d", i))
	}
	winners := make([]atomic.Int32, fpCount)
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(userID uint64) {
			defer wg.Done()
			for i, f := range fps {
				reserved, err := ix.ReserveShare(f, userID, 64)
				if err != nil {
					errCh <- err
					return
				}
				if reserved {
					winners[i].Add(1)
					if err := ix.CommitShare(f, fmt.Sprintf("c-u%d", userID)); err != nil {
						errCh <- err
						return
					}
				}
			}
			errCh <- nil
		}(uint64(g + 1))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range winners {
		if n := winners[i].Load(); n != 1 {
			t.Fatalf("fingerprint %d had %d reservation winners, want exactly 1", i, n)
		}
	}
	// Every user must have been recorded as an owner, wherever their
	// reserve landed relative to the winner's commit.
	for _, f := range fps {
		e, err := ix.LookupShare(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(e.Refs) != goroutines {
			t.Fatalf("share %s has %d owners, want %d", f, len(e.Refs), goroutines)
		}
	}
}

// TestReserveCommitAbort covers the two-phase API's edge cases:
// visibility of a pending reservation, a racing uploader waiting for
// the outcome, commit-without-reserve, and an abort handing the
// reservation to a waiting session.
func TestReserveCommitAbort(t *testing.T) {
	ix := openTestIndex(t)
	f := fp("two-phase")
	reserved, err := ix.ReserveShare(f, 1, 10)
	if err != nil || !reserved {
		t.Fatalf("first reserve: %v %v", reserved, err)
	}
	// While pending, ShareOwnedBy sees it for the reserver only, and
	// LookupShare (the restore path) does not see it at all.
	if owned, _ := ownedBy(ix, f, 1); !owned {
		t.Fatal("pending share not visible to its owner")
	}
	if owned, _ := ownedBy(ix, f, 2); owned {
		t.Fatal("pending share visible to a non-owner")
	}
	if _, err := ix.LookupShare(f); err != ErrNotFound {
		t.Fatalf("pending share visible to LookupShare: %v", err)
	}
	// A second uploader of the same fingerprint must WAIT for the
	// outcome — not deduplicate against bytes that are not durable yet.
	second := make(chan bool, 1)
	go func() {
		r, err := ix.ReserveShare(f, 2, 10)
		if err != nil {
			t.Error(err)
		}
		second <- r
	}()
	select {
	case r := <-second:
		t.Fatalf("second reserve resolved (%v) before the first committed", r)
	case <-time.After(50 * time.Millisecond):
	}
	if err := ix.CommitShare(f, "c1"); err != nil {
		t.Fatal(err)
	}
	if r := <-second; r {
		t.Fatal("second reserve won after the first committed")
	}
	e, err := ix.LookupShare(f)
	if err != nil || e.Container != "c1" || len(e.Refs) != 2 {
		t.Fatalf("after commit: %+v, %v", e, err)
	}
	// Double commit must fail loudly.
	if err := ix.CommitShare(f, "c2"); err == nil {
		t.Fatal("commit of an unreserved share accepted")
	}
	// Abort wakes a waiter, which must win the reservation itself and
	// store its own copy (it still holds the bytes).
	f2 := fp("aborted")
	if reserved, _ := ix.ReserveShare(f2, 1, 10); !reserved {
		t.Fatal("reserve f2")
	}
	waiter := make(chan bool, 1)
	go func() {
		r, err := ix.ReserveShare(f2, 3, 10)
		if err != nil {
			t.Error(err)
		}
		waiter <- r
	}()
	select {
	case r := <-waiter:
		t.Fatalf("waiter resolved (%v) before the abort", r)
	case <-time.After(50 * time.Millisecond):
	}
	ix.AbortShare(f2)
	if r := <-waiter; !r {
		t.Fatal("waiter did not inherit the reservation after abort")
	}
	if owned, _ := ownedBy(ix, f2, 1); owned {
		t.Fatal("aborting user still owns the share")
	}
	if err := ix.CommitShare(f2, "c3"); err != nil {
		t.Fatal(err)
	}
	e2, err := ix.LookupShare(f2)
	if err != nil || e2.Container != "c3" || len(e2.Refs) != 1 {
		t.Fatalf("after abort handoff: %+v, %v", e2, err)
	}
}
