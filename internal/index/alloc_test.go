package index

import (
	"fmt"
	"testing"

	"cdstore/internal/metadata"
)

// raceEnabled reports whether the race detector is compiled in
// (race_test.go sets it). Allocation floors consult it: under race,
// sync.Pool deliberately drops a fraction of Puts, so pooled states get
// reallocated and per-call allocation counts are inflated.
var raceEnabled bool

// TestIndexHotPathAllocs is the allocation gate on the view-backed
// operations: each answers on the encoded entry in place, so what is
// left per fingerprint is only what the operation must produce.
// Budgets are per fingerprint over a 1024-fingerprint batch (the result
// slice and the shard ordering are one allocation each per batch).
func TestIndexHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n, user = 1024, 1
	fps := make([]metadata.Fingerprint, n)
	names := make([]string, n)
	for i := range fps {
		fps[i] = fp(fmt.Sprintf("alloc-%d", i))
		names[i] = fmt.Sprintf("share-u1-%012d", i/256) // a restore reads container by container
	}
	check := func(t *testing.T, ix *Index) {
		perFP := func(f func()) float64 { return testing.AllocsPerRun(20, f) / n }
		report := func(what string, got, budget float64) {
			t.Helper()
			t.Logf("%-40s %.3f allocs/fp (budget %.2f)", what, got, budget)
			if got > budget {
				t.Errorf("%s: %.3f allocs/fp, budget %.2f", what, got, budget)
			}
		}
		report("SharesOwnedBy", perFP(func() {
			if _, err := ix.SharesOwnedBy(fps, user); err != nil {
				t.Fatal(err)
			}
		}), 0.01)
		report("TryReserveShare, duplicate by an owner", perFP(func() {
			for _, f := range fps {
				if st, err := ix.TryReserveShare(f, user, 64); err != nil || st != StatusDuplicate {
					t.Fatalf("%v %v", st, err)
				}
			}
		}), 0)
		report("LocateShares", perFP(func() {
			if _, err := ix.LocateShares(fps, user); err != nil {
				t.Fatal(err)
			}
		}), 1)
		report("AddShareRefs, every fingerprint twice", perFP(func() {
			if err := ix.AddShareRefs(append(fps[:n:n], fps...), user); err != nil {
				t.Fatal(err)
			}
		}), 2.1)
	}
	ix := openTestIndex(t)
	for _, f := range fps {
		if st, err := ix.TryReserveShare(f, user, 64); err != nil || st != StatusReserved {
			t.Fatalf("%v %v", st, err)
		}
	}
	if err := ix.CommitShares(fps, names); err != nil {
		t.Fatal(err)
	}
	t.Run("memtable", func(t *testing.T) { check(t, ix) })
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	t.Run("sstable", func(t *testing.T) { check(t, ix) })
}
