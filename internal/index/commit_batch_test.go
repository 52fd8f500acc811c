package index

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cdstore/internal/metadata"
)

func openSyncTestIndex(t *testing.T) *Index {
	t.Helper()
	ix, err := OpenWithOptions(t.TempDir(), &Options{SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

func reserveAll(t *testing.T, ix *Index, fps []metadata.Fingerprint, user uint64) {
	t.Helper()
	for _, f := range fps {
		st, err := ix.TryReserveShare(f, user, 64)
		if err != nil || st != StatusReserved {
			t.Fatalf("reserve %s: %v %v", f, st, err)
		}
	}
}

// TestCommitSharesMatchesSequential: the batched commit must leave the
// index in exactly the state N sequential CommitShare calls would —
// entries committed, containers recorded, reservations gone.
func TestCommitSharesMatchesSequential(t *testing.T) {
	ix := openTestIndex(t)
	const n = 300 // spans many shards, several fps per shard
	fps := make([]metadata.Fingerprint, n)
	containers := make([]string, n)
	for i := range fps {
		fps[i] = fp(fmt.Sprintf("batch-commit-%d", i))
		containers[i] = fmt.Sprintf("c-%d", i%7)
	}
	reserveAll(t, ix, fps, 1)
	if err := ix.CommitShares(fps, containers); err != nil {
		t.Fatal(err)
	}
	for i, f := range fps {
		e, err := ix.LookupShare(f)
		if err != nil {
			t.Fatalf("share %d not committed: %v", i, err)
		}
		if e.Container != containers[i] {
			t.Fatalf("share %d container = %q, want %q", i, e.Container, containers[i])
		}
		if _, owned := e.Refs[1]; !owned {
			t.Fatalf("share %d lost its upload marker", i)
		}
	}
	// Reservations are resolved: a second reserve classifies as duplicate.
	for _, f := range fps {
		st, err := ix.TryReserveShare(f, 2, 64)
		if err != nil || st != StatusDuplicate {
			t.Fatalf("post-commit reserve: %v %v, want duplicate", st, err)
		}
	}
}

func TestCommitSharesRejectsUnreserved(t *testing.T) {
	ix := openTestIndex(t)
	fps := []metadata.Fingerprint{fp("never-reserved")}
	if err := ix.CommitShares(fps, []string{"c"}); err == nil {
		t.Fatal("commit of unreserved share accepted")
	}
	if err := ix.CommitShares(fps, nil); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if err := ix.CommitShares(nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestCommitSharesGroupCommitSyncCount is the fsync-economy assertion:
// under SyncWAL a batch costs ONE fsync however many stripes it touches
// (the stripes share one WAL and the batch one durability point), as do
// the other batched writers; sequential CommitShare costs one per share.
func TestCommitSharesGroupCommitSyncCount(t *testing.T) {
	ix := openSyncTestIndex(t)
	const n = 256
	fps := make([]metadata.Fingerprint, n)
	containers := make([]string, n)
	for i := range fps {
		fps[i] = fp(fmt.Sprintf("sync-count-%d", i))
		containers[i] = "c"
	}
	touched := map[int]bool{}
	for _, f := range fps {
		touched[shardOf(f)] = true
	}
	if len(touched) < NumShards/2 {
		t.Fatalf("batch touches only %d stripes", len(touched))
	}
	reserveAll(t, ix, fps, 1)
	for _, batch := range []struct {
		name string
		run  func() error
	}{
		{"CommitShares", func() error { return ix.CommitShares(fps, containers) }},
		{"AddShareRefs", func() error { return ix.AddShareRefs(fps, 1) }},
		{"RepointShares", func() error { _, err := ix.RepointShares(fps, "c", "d"); return err }},
		{"MarkSharesDamaged", func() error { _, err := ix.MarkSharesDamaged(fps, "d"); return err }},
		{"ReleaseShareRefs", func() error { return ix.ReleaseShareRefs(fps, 1) }},
	} {
		base := ix.WALSyncs()
		if err := batch.run(); err != nil {
			t.Fatalf("%s: %v", batch.name, err)
		}
		if got := ix.WALSyncs() - base; got != 1 {
			t.Fatalf("%s of %d shares over %d stripes issued %d fsyncs, want 1", batch.name, n, len(touched), got)
		}
	}
	// Sequential baseline on fresh fingerprints: one fsync per share.
	fps2 := make([]metadata.Fingerprint, n)
	for i := range fps2 {
		fps2[i] = fp(fmt.Sprintf("sync-seq-%d", i))
	}
	reserveAll(t, ix, fps2, 1)
	base := ix.WALSyncs()
	for _, f := range fps2 {
		if err := ix.CommitShare(f, "c"); err != nil {
			t.Fatal(err)
		}
	}
	if got := ix.WALSyncs() - base; got != n {
		t.Fatalf("sequential commits issued %d fsyncs, want %d", got, n)
	}
}

// TestCommitSharesWakesWaiters: sessions blocked in WaitShare on members
// of the batch must all wake once the group commits, and classify the
// shares as duplicates afterwards.
func TestCommitSharesWakesWaiters(t *testing.T) {
	ix := openTestIndex(t)
	const n = 32
	fps := make([]metadata.Fingerprint, n)
	containers := make([]string, n)
	for i := range fps {
		fps[i] = fp(fmt.Sprintf("waiter-%d", i))
		containers[i] = "c"
	}
	reserveAll(t, ix, fps, 1)
	var woken atomic.Int32
	var wg sync.WaitGroup
	for _, f := range fps {
		wg.Add(1)
		go func(f metadata.Fingerprint) {
			defer wg.Done()
			ix.WaitShare(f)
			st, err := ix.TryReserveShare(f, 2, 64)
			if err == nil && st == StatusDuplicate {
				woken.Add(1)
			}
		}(f)
	}
	time.Sleep(20 * time.Millisecond) // let waiters park
	if err := ix.CommitShares(fps, containers); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if woken.Load() != n {
		t.Fatalf("%d waiters classified duplicate after group commit, want %d", woken.Load(), n)
	}
}

// TestCommitSharesRaceStress hammers batched group commits against
// concurrent TryReserveShare/WaitShare traffic on the same fingerprint
// space. Run under -race this is the proof the batched path keeps the
// shard invariants: exactly one reservation winner per fingerprint, and
// every fingerprint durably committed exactly once.
func TestCommitSharesRaceStress(t *testing.T) {
	ix := openTestIndex(t)
	const (
		committers = 8
		pokers     = 8
		fpCount    = 192
		batchSize  = 24
	)
	fps := make([]metadata.Fingerprint, fpCount)
	for i := range fps {
		fps[i] = fp(fmt.Sprintf("commit-stress-%d", i))
	}
	winners := make([]atomic.Int32, fpCount)
	var wg sync.WaitGroup
	errCh := make(chan error, committers+pokers)

	// Committers: claim what they can with the non-blocking reserve, then
	// group-commit their whole haul in one CommitShares call — the server
	// put path's shape.
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(userID uint64) {
			defer wg.Done()
			var won []int
			for i := range fps {
				f := fps[(i*int(userID))%fpCount]
				pos := (i * int(userID)) % fpCount
				st, err := ix.TryReserveShare(f, userID, 64)
				if err != nil {
					errCh <- err
					return
				}
				if st == StatusReserved {
					winners[pos].Add(1)
					won = append(won, pos)
				}
				if len(won) >= batchSize {
					batch := make([]metadata.Fingerprint, len(won))
					names := make([]string, len(won))
					for j, p := range won {
						batch[j] = fps[p]
						names[j] = fmt.Sprintf("c-u%d", userID)
					}
					if err := ix.CommitShares(batch, names); err != nil {
						errCh <- err
						return
					}
					won = won[:0]
				}
			}
			if len(won) > 0 {
				batch := make([]metadata.Fingerprint, len(won))
				names := make([]string, len(won))
				for j, p := range won {
					batch[j] = fps[p]
					names[j] = fmt.Sprintf("c-u%d", userID)
				}
				if err := ix.CommitShares(batch, names); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}(uint64(g + 1))
	}

	// Pokers: blocking waiters racing the group commits.
	for g := 0; g < pokers; g++ {
		wg.Add(1)
		go func(userID uint64) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for _, f := range fps {
					ix.WaitShare(f)
					if _, err := ix.ShareOwnedBy(f, userID); err != nil {
						errCh <- err
						return
					}
				}
			}
			errCh <- nil
		}(uint64(100 + g))
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
	for _, f := range fps {
		e, err := ix.LookupShare(f)
		if err != nil {
			t.Fatalf("share %s missing after stress: %v", f, err)
		}
		if e.Container == "" {
			t.Fatalf("share %s committed without container", f)
		}
	}
}

// TestCommitSharesPersistsAcrossReopen: the group write is the durability
// point — a reopen (crash-equivalent for a sync index: WAL replay)
// recovers every committed entry.
func TestCommitSharesPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	ix, err := OpenWithOptions(dir, &Options{SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	fps := make([]metadata.Fingerprint, n)
	containers := make([]string, n)
	for i := range fps {
		fps[i] = fp(fmt.Sprintf("durable-%d", i))
		containers[i] = fmt.Sprintf("c-%d", i)
	}
	reserveAll(t, ix, fps, 7)
	if err := ix.CommitShares(fps, containers); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	ix2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	for i, f := range fps {
		e, err := ix2.LookupShare(f)
		if err != nil || e.Container != containers[i] {
			t.Fatalf("share %d after reopen: %+v, %v", i, e, err)
		}
	}
}
