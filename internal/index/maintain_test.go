package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"cdstore/internal/metadata"
)

// rawEntry returns a copy of the stored bytes of fp's committed entry.
func rawEntry(t *testing.T, ix *Index, f metadata.Fingerprint) []byte {
	t.Helper()
	sh := &ix.shards[shardOf(f)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	v, err := sh.peek(f)
	if err != nil {
		t.Fatalf("entry %s: %v", f, err)
	}
	return append([]byte(nil), v.raw...)
}

// entryBytes spells out the persisted layout (view.go) by hand.
func entryBytes(container string, size uint32, damaged bool, refs ...uint64) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(container)))
	out = append(out, container...)
	out = binary.BigEndian.AppendUint32(out, size)
	out = binary.BigEndian.AppendUint32(out, uint32(len(refs)/2))
	for i := 0; i < len(refs); i += 2 {
		out = binary.BigEndian.AppendUint64(out, refs[i])
		out = binary.BigEndian.AppendUint32(out, uint32(refs[i+1]))
	}
	if damaged {
		out = append(out, shareFlagDamaged)
	}
	return out
}

// ownedByThree commits f into container for user 9, then records users 3
// and 5 as owners, in that order, with 2, 0 and 4 references.
func ownedByThree(t *testing.T, ix *Index, f metadata.Fingerprint, container string) {
	t.Helper()
	commitShare(t, ix, f, 9, container)
	for _, u := range []uint64{3, 5} {
		if st, err := ix.TryReserveShare(f, u, 128); err != nil || st != StatusDuplicate {
			t.Fatalf("owner %d: %v, %v", u, st, err)
		}
	}
	if err := ix.AddShareRefs([]metadata.Fingerprint{f, f}, 9); err != nil {
		t.Fatal(err)
	}
	if err := ix.AddShareRefs([]metadata.Fingerprint{f, f, f, f}, 5); err != nil {
		t.Fatal(err)
	}
}

// TestMaintenancePreservesRefsByteForByte: RepointShares and
// MarkSharesDamaged change the container reference (and the flag) and
// nothing else — ref order and counts come out exactly as they went in,
// so the stored bytes are the same run after run, which an encoder
// walking a Go map could not promise.
func TestMaintenancePreservesRefsByteForByte(t *testing.T) {
	ix := openTestIndex(t)
	f := fp("three-owners")
	ownedByThree(t, ix, f, "share-u9-000000000001")
	if got, want := rawEntry(t, ix, f), entryBytes("share-u9-000000000001", 128, false, 9, 2, 3, 0, 5, 4); !bytes.Equal(got, want) {
		t.Fatalf("seed entry\n got %x\nwant %x", got, want)
	}
	for i := 2; i < 40; i++ { // many moves: a map walk would reorder sooner or later
		from, to := fmt.Sprintf("share-u9-%012d", i-1), fmt.Sprintf("share-u9-%012d", i)
		if n, err := ix.RepointShares([]metadata.Fingerprint{f, f}, from, to); err != nil || n != 1 {
			t.Fatalf("repoint %d: moved %d, %v", i, n, err)
		}
		if got, want := rawEntry(t, ix, f), entryBytes(to, 128, false, 9, 2, 3, 0, 5, 4); !bytes.Equal(got, want) {
			t.Fatalf("after repoint %d\n got %x\nwant %x", i, got, want)
		}
	}
	if n, err := ix.MarkSharesDamaged([]metadata.Fingerprint{f}, "share-u9-000000000039"); err != nil || n != 1 {
		t.Fatalf("mark: %d, %v", n, err)
	}
	if got, want := rawEntry(t, ix, f), entryBytes("", 128, true, 9, 2, 3, 0, 5, 4); !bytes.Equal(got, want) {
		t.Fatalf("after mark\n got %x\nwant %x", got, want)
	}
}

// TestMaintenanceLeavesOtherEntriesAlone: both operations are conditional
// on the entry still pointing at the container the caller is working on.
// A share deduplicated into a different container, one already flagged,
// one under an in-flight reservation (new, or repairing a damaged entry)
// and an unknown fingerprint all come out byte-identical.
func TestMaintenanceLeavesOtherEntriesAlone(t *testing.T) {
	const here, elsewhere, next = "share-u1-000000000001", "share-u2-000000000007", "share-u1-000000000002"
	for _, op := range []string{"repoint", "mark"} {
		t.Run(op, func(t *testing.T) {
			ix := openTestIndex(t)
			mine, moved, flagged, repairing, reserved, unknown :=
				fp("mine"), fp("moved"), fp("flagged"), fp("repairing"), fp("reserved"), fp("unknown")
			commitShare(t, ix, mine, 1, here)
			commitShare(t, ix, moved, 2, elsewhere) // same bytes, stored by another user elsewhere
			commitShare(t, ix, flagged, 1, here)
			commitShare(t, ix, repairing, 1, here)
			if n, err := ix.MarkSharesDamaged([]metadata.Fingerprint{flagged, repairing}, here); err != nil || n != 2 {
				t.Fatalf("setup mark: %d, %v", n, err)
			}
			for _, f := range []metadata.Fingerprint{repairing, reserved} {
				if st, err := ix.TryReserveShare(f, 1, 128); err != nil || st != StatusReserved {
					t.Fatalf("setup reserve: %v, %v", st, err)
				}
			}
			all := []metadata.Fingerprint{mine, moved, flagged, repairing, reserved, unknown}
			before := map[metadata.Fingerprint][]byte{}
			for _, f := range []metadata.Fingerprint{moved, flagged, repairing} {
				before[f] = rawEntry(t, ix, f)
			}
			var n int
			var err error
			if op == "repoint" {
				n, err = ix.RepointShares(all, here, next)
			} else {
				n, err = ix.MarkSharesDamaged(all, here)
			}
			if err != nil || n != 1 {
				t.Fatalf("%s touched %d entries (%v), want only the one still placed in %s", op, n, err, here)
			}
			for f, want := range before {
				if got := rawEntry(t, ix, f); !bytes.Equal(got, want) {
					t.Fatalf("%s rewrote an entry it should have left alone\n got %x\nwant %x", op, got, want)
				}
			}
			for _, f := range []metadata.Fingerprint{reserved, unknown} {
				if _, err := ix.LookupShare(f); err != ErrNotFound {
					t.Fatalf("%s created an entry for %s: %v", op, f, err)
				}
			}
			e, err := ix.LookupShare(mine)
			if err != nil || (op == "repoint" && (e.Container != next || e.Damaged)) || (op == "mark" && (e.Container != "" || !e.Damaged)) {
				t.Fatalf("after %s the targeted entry is %+v (%v)", op, e, err)
			}
			// The reservations are intact: both still commit.
			for _, f := range []metadata.Fingerprint{repairing, reserved} {
				if err := ix.CommitShare(f, "share-u1-000000000009"); err != nil {
					t.Fatalf("commit after %s: %v", op, err)
				}
			}
			if got := ix.RepairedShares(); got != 1 {
				t.Fatalf("RepairedShares = %d, want the one repair", got)
			}
		})
	}
}

// TestMaintenanceRacesReservations runs repoints and marks of a
// container's fingerprints against sessions reserving, committing and
// aborting the same fingerprints (-race). Whatever interleaving happens,
// an entry ends up healthy in a container some writer named or damaged
// with its owners intact, and no reservation is lost.
func TestMaintenanceRacesReservations(t *testing.T) {
	ix := openTestIndex(t)
	const n = 64
	fps := make([]metadata.Fingerprint, n)
	for i := range fps {
		fps[i] = fp(fmt.Sprint("race-", i))
		commitShare(t, ix, fps[i], 1, "share-u1-000000000000")
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // the maintenance side: move the container along, damaging a few on the way
		defer wg.Done()
		for gen := 0; gen < 30; gen++ {
			from, to := fmt.Sprintf("share-u1-%012d", gen), fmt.Sprintf("share-u1-%012d", gen+1)
			if _, err := ix.MarkSharesDamaged(fps[gen:gen+1], from); err != nil {
				t.Error(err)
			}
			if _, err := ix.RepointShares(fps, from, to); err != nil {
				t.Error(err)
			}
		}
	}()
	for _, user := range []uint64{2, 3} { // the upload side: duplicates, and repairs of what got damaged
		go func(user uint64) {
			defer wg.Done()
			for round := 0; round < 30; round++ {
				for i, f := range fps {
					st, err := ix.TryReserveShare(f, user, 128)
					if err != nil {
						t.Error(err)
						return
					}
					if st != StatusReserved {
						continue
					}
					if (i+round)%2 == 0 {
						ix.AbortShare(f)
					} else if err := ix.CommitShare(f, fmt.Sprintf("share-u%d-repair", user)); err != nil {
						t.Error(err)
					}
				}
			}
		}(user)
	}
	wg.Wait()
	for i, f := range fps {
		e, err := ix.LookupShare(f)
		if err != nil {
			t.Fatalf("entry %d lost: %v", i, err)
		}
		if _, ok := e.Refs[1]; !ok {
			t.Fatalf("entry %d lost its first owner: %+v", i, e)
		}
		switch {
		case e.Damaged && e.Container == "":
		case !e.Damaged && (e.Container == "share-u1-000000000030" || e.Container == "share-u2-repair" || e.Container == "share-u3-repair"):
		default:
			t.Fatalf("entry %d ended in no state any writer produced: %+v", i, e)
		}
		if st, err := ix.TryReserveShare(f, 4, 128); err != nil || st == StatusPending {
			t.Fatalf("entry %d: a reservation leaked (%v, %v)", i, st, err)
		} else if st == StatusReserved {
			ix.AbortShare(f)
		}
	}
}

// TestRepointFiles: the file-index counterpart moves only entries whose
// recipe still lives in the container being rewritten, per user.
func TestRepointFiles(t *testing.T) {
	ix := openTestIndex(t)
	const from, to = "recipe-u1-000000000001", "recipe-u1-000000000005"
	put := func(user uint64, path, container string) metadata.Fingerprint {
		t.Helper()
		if err := ix.PutFile(&FileEntry{UserID: user, Path: path, FileSize: 10, NumSecrets: 2, RecipeContainer: container}); err != nil {
			t.Fatal(err)
		}
		return metadata.FileKey(user, path)
	}
	a := put(1, "/a", from)
	b := put(1, "/b", from)
	c := put(1, "/c", "recipe-u1-000000000002") // re-uploaded into a newer container
	other := put(2, "/a", from)                 // another user's entry naming the same string
	gone := metadata.FileKey(1, "/deleted")
	keys := []metadata.Fingerprint{a, c, gone, other} // b's recipe did not survive the rewrite

	at, err := ix.RecipeContainers(1, append(keys, b))
	if err != nil || at[0] != from || at[1] != "recipe-u1-000000000002" || at[2] != "" || at[3] != "" || at[4] != from {
		t.Fatalf("RecipeContainers = %q, %v", at, err)
	}
	if n, err := ix.RepointFiles(1, keys, from, to); err != nil || n != 1 {
		t.Fatalf("RepointFiles moved %d (%v), want 1", n, err)
	}
	for _, tc := range []struct {
		user uint64
		path string
		want string
	}{{1, "/a", to}, {1, "/b", from}, {1, "/c", "recipe-u1-000000000002"}, {2, "/a", from}} {
		fe, err := ix.LookupFile(tc.user, tc.path)
		if err != nil || fe.RecipeContainer != tc.want || fe.FileSize != 10 || fe.NumSecrets != 2 || fe.Path != tc.path {
			t.Fatalf("user %d %s: %+v (%v), want container %s and nothing else changed", tc.user, tc.path, fe, err, tc.want)
		}
	}
	if _, err := ix.LookupFile(1, "/deleted"); err != ErrNotFound {
		t.Fatalf("repoint created a file entry: %v", err)
	}
}
