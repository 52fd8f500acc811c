package index

import (
	"fmt"
	"testing"

	"cdstore/internal/metadata"
)

// TestSharesOwnedByMatchesSingle pins the batched ownership query to
// one-fingerprint batches, across a batch that spans many shards, mixes
// owned/unowned/absent fingerprints, and includes duplicates: only the
// fingerprints user 1 owns answer true.
func TestSharesOwnedByMatchesSingle(t *testing.T) {
	ix := openTestIndex(t)
	var fps []metadata.Fingerprint
	for i := 0; i < 200; i++ {
		f := fp(fmt.Sprintf("batch-%d", i))
		fps = append(fps, f)
		switch i % 3 {
		case 0: // owned by user 1
			ix.PutShare(&ShareEntry{Fingerprint: f, Container: "c", Size: 1, Refs: map[uint64]uint32{1: 1}})
		case 1: // owned by someone else
			ix.PutShare(&ShareEntry{Fingerprint: f, Container: "c", Size: 1, Refs: map[uint64]uint32{7: 1}})
		default: // absent
		}
	}
	fps = append(fps, fps[0], fps[1]) // duplicates in one batch
	got, err := ix.SharesOwnedBy(fps, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(fps) {
		t.Fatalf("got %d answers for %d fingerprints", len(got), len(fps))
	}
	for i, f := range fps {
		want, err := ownedBy(ix, f, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want != (i%200%3 == 0) {
			t.Fatalf("position %d: single answers %v", i, want)
		}
		if got[i] != want {
			t.Fatalf("position %d: batched %v, single %v", i, got[i], want)
		}
	}
}

// TestSharesOwnedBySeesPendingReservation: a pending reservation counts
// only for the reserving user.
func TestSharesOwnedBySeesPendingReservation(t *testing.T) {
	ix := openTestIndex(t)
	f := fp("pending-share")
	st, err := ix.TryReserveShare(f, 1, 100)
	if err != nil || st != StatusReserved {
		t.Fatalf("reserve: %v %v", st, err)
	}
	owned, err := ix.SharesOwnedBy([]metadata.Fingerprint{f}, 1)
	if err != nil || !owned[0] {
		t.Fatalf("reserver should own pending share: %v %v", owned, err)
	}
	owned, err = ix.SharesOwnedBy([]metadata.Fingerprint{f}, 2)
	if err != nil || owned[0] {
		t.Fatal("non-reserver sees pending share: side channel!")
	}
	ix.AbortShare(f)
}

// TestLocateSharesMatchesSingle pins the batched locate path (and its
// no-asking-user form LookupShares) to LookupShare: Found marks presence,
// Owned is the asking user's ref alone, a damaged entry has no container.
func TestLocateSharesMatchesSingle(t *testing.T) {
	ix := openTestIndex(t)
	const asker = 3
	var fps []metadata.Fingerprint
	for i := 0; i < 120; i++ {
		f := fp(fmt.Sprintf("lk-%d", i))
		fps = append(fps, f)
		if i%2 == 0 {
			ix.PutShare(&ShareEntry{
				Fingerprint: f,
				Container:   fmt.Sprintf("cont-%d", i/8),
				Size:        uint32(i + 1),
				Refs:        map[uint64]uint32{uint64(i % 5): 1},
				Damaged:     i%12 == 0,
			})
		}
	}
	locs, err := ix.LocateShares(nil, fps, asker)
	if err != nil {
		t.Fatal(err)
	}
	anon, err := ix.LookupShares(fps)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != len(fps) || len(anon) != len(fps) {
		t.Fatalf("got %d/%d locations for %d fingerprints", len(locs), len(anon), len(fps))
	}
	for i, f := range fps {
		single, err := ix.LookupShare(f)
		if err == ErrNotFound {
			if locs[i] != (ShareLocation{}) || anon[i] != (ShareLocation{}) {
				t.Fatalf("position %d: batched found %+v, single did not", i, locs[i])
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		want := ShareLocation{Found: true, Size: single.Size}
		if !single.Damaged {
			want.Container = single.Container
		}
		if anon[i] != want {
			t.Fatalf("position %d: LookupShares %+v, want %+v", i, anon[i], want)
		}
		_, want.Owned = single.Refs[asker]
		if locs[i] != want {
			t.Fatalf("position %d: LocateShares %+v, want %+v", i, locs[i], want)
		}
	}
}
