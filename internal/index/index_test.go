package index

import (
	"errors"
	"fmt"
	"maps"
	"testing"

	"cdstore/internal/metadata"
)

func openTestIndex(t *testing.T) *Index {
	t.Helper()
	ix, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

func fp(s string) metadata.Fingerprint { return metadata.FingerprintOf([]byte(s)) }

// ownedBy is SharesOwnedBy for one fingerprint.
func ownedBy(ix *Index, f metadata.Fingerprint, userID uint64) (bool, error) {
	owned, err := ix.SharesOwnedBy([]metadata.Fingerprint{f}, userID)
	if err != nil {
		return false, err
	}
	return owned[0], nil
}

func TestShareEntryRoundTrip(t *testing.T) {
	ix := openTestIndex(t)
	e := &ShareEntry{
		Fingerprint: fp("share-1"),
		Container:   "share-u1-000000000003",
		Size:        2731,
		Refs:        map[uint64]uint32{1: 2, 9: 1},
	}
	if err := ix.PutShare(e); err != nil {
		t.Fatal(err)
	}
	got, err := ix.LookupShare(fp("share-1"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Container != e.Container || got.Size != e.Size || len(got.Refs) != 2 ||
		got.Refs[1] != 2 || got.Refs[9] != 1 {
		t.Fatalf("got %+v", got)
	}
	if _, err := ix.LookupShare(fp("absent")); err != ErrNotFound {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestShareOwnedByIsPerUser(t *testing.T) {
	// The side-channel defence: a share owned only by user 1 must look
	// absent to user 2's intra-user dedup query.
	ix := openTestIndex(t)
	ix.PutShare(&ShareEntry{Fingerprint: fp("x"), Container: "c", Size: 10, Refs: map[uint64]uint32{1: 1}})
	owned, err := ownedBy(ix, fp("x"), 1)
	if err != nil || !owned {
		t.Fatalf("owner query: %v %v", owned, err)
	}
	owned, err = ownedBy(ix, fp("x"), 2)
	if err != nil || owned {
		t.Fatal("non-owner sees another user's share: side channel!")
	}
	owned, err = ownedBy(ix, fp("not-there"), 1)
	if err != nil || owned {
		t.Fatal("absent share reported owned")
	}
}

func TestAddAndReleaseShareRefs(t *testing.T) {
	ix := openTestIndex(t)
	s := []metadata.Fingerprint{fp("s")}
	ix.PutShare(&ShareEntry{Fingerprint: s[0], Container: "c", Size: 5, Refs: map[uint64]uint32{1: 1}})
	if err := ix.AddShareRefs(s, 1); err != nil {
		t.Fatal(err)
	}
	if err := ix.AddShareRefs(s, 2); err != nil {
		t.Fatal(err)
	}
	e, _ := ix.LookupShare(s[0])
	if e.Refs[1] != 2 || e.Refs[2] != 1 {
		t.Fatalf("refs = %v", e.Refs)
	}
	// Release one of user 1's two refs, then the rest.
	for i, step := range []struct {
		user uint64
		left map[uint64]uint32
	}{{1, map[uint64]uint32{1: 1, 2: 1}}, {1, map[uint64]uint32{2: 1}}} {
		if err := ix.ReleaseShareRefs(s, step.user); err != nil {
			t.Fatalf("release %d: %v", i+1, err)
		}
		e, err := ix.LookupShare(s[0])
		if err != nil || !maps.Equal(e.Refs, step.left) {
			t.Fatalf("release %d: refs %v err %v, want %v", i+1, e, err, step.left)
		}
	}
	if err := ix.ReleaseShareRefs(s, 2); err != nil {
		t.Fatal(err)
	}
	// Entry fully removed.
	if _, err := ix.LookupShare(s[0]); err != ErrNotFound {
		t.Fatalf("zero-ref share should be deleted: %v", err)
	}
}

// TestReleaseAbsentShare: releasing a fingerprint that is not indexed is
// a no-op, so deletion stays idempotent.
func TestReleaseAbsentShare(t *testing.T) {
	ix := openTestIndex(t)
	if err := ix.ReleaseShareRefs([]metadata.Fingerprint{fp("ghost")}, 1); err != nil {
		t.Fatalf("release of an absent share: %v", err)
	}
	if _, err := ix.LookupShare(fp("ghost")); err != ErrNotFound {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestFileEntryRoundTrip(t *testing.T) {
	ix := openTestIndex(t)
	e := &FileEntry{
		UserID:          42,
		Path:            "/home/u42/backup-week3.tar",
		FileSize:        1 << 32,
		NumSecrets:      524288,
		RecipeContainer: "recipe-u42-000000000007",
	}
	if err := ix.PutFile(e); err != nil {
		t.Fatal(err)
	}
	got, err := ix.LookupFile(42, e.Path)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *e {
		t.Fatalf("got %+v, want %+v", got, e)
	}
	// Same path for another user is absent (key includes user ID).
	if _, err := ix.LookupFile(43, e.Path); err != ErrNotFound {
		t.Fatalf("cross-user file lookup: %v", err)
	}
}

func TestListFilesPerUser(t *testing.T) {
	ix := openTestIndex(t)
	for i := 0; i < 5; i++ {
		ix.PutFile(&FileEntry{UserID: 1, Path: fmt.Sprintf("/u1/f%d", i), RecipeContainer: "r"})
	}
	for i := 0; i < 3; i++ {
		ix.PutFile(&FileEntry{UserID: 2, Path: fmt.Sprintf("/u2/f%d", i), RecipeContainer: "r"})
	}
	l1, err := ix.ListFiles(1)
	if err != nil || len(l1) != 5 {
		t.Fatalf("user 1 list: %d, %v", len(l1), err)
	}
	l2, err := ix.ListFiles(2)
	if err != nil || len(l2) != 3 {
		t.Fatalf("user 2 list: %d, %v", len(l2), err)
	}
	for _, e := range l1 {
		if e.UserID != 1 {
			t.Fatal("user 1 listing leaked another user's file")
		}
	}
}

func TestDeleteFile(t *testing.T) {
	ix := openTestIndex(t)
	ix.PutFile(&FileEntry{UserID: 1, Path: "/f", RecipeContainer: "r"})
	if err := ix.DeleteFile(1, "/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.LookupFile(1, "/f"); err != ErrNotFound {
		t.Fatalf("deleted file still present: %v", err)
	}
}

func TestOverwriteFileEntry(t *testing.T) {
	// Re-uploading the same path replaces the recipe reference.
	ix := openTestIndex(t)
	ix.PutFile(&FileEntry{UserID: 1, Path: "/f", RecipeContainer: "r1"})
	ix.PutFile(&FileEntry{UserID: 1, Path: "/f", RecipeContainer: "r2"})
	got, _ := ix.LookupFile(1, "/f")
	if got.RecipeContainer != "r2" {
		t.Fatalf("RecipeContainer = %s, want r2", got.RecipeContainer)
	}
	l, _ := ix.ListFiles(1)
	if len(l) != 1 {
		t.Fatalf("list has %d entries, want 1", len(l))
	}
}

func TestCountShares(t *testing.T) {
	ix := openTestIndex(t)
	for i := 0; i < 7; i++ {
		ix.PutShare(&ShareEntry{Fingerprint: fp(fmt.Sprint(i)), Container: "c", Refs: map[uint64]uint32{1: 1}})
	}
	n, err := ix.CountShares()
	if err != nil || n != 7 {
		t.Fatalf("CountShares = %d, %v", n, err)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	ix, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ix.PutShare(&ShareEntry{Fingerprint: fp("durable"), Container: "c", Size: 1, Refs: map[uint64]uint32{5: 3}})
	ix.PutFile(&FileEntry{UserID: 5, Path: "/p", RecipeContainer: "rc"})
	ix.Close()
	ix2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	e, err := ix2.LookupShare(fp("durable"))
	if err != nil || e.Refs[5] != 3 {
		t.Fatalf("share after reopen: %+v, %v", e, err)
	}
	f, err := ix2.LookupFile(5, "/p")
	if err != nil || f.RecipeContainer != "rc" {
		t.Fatalf("file after reopen: %+v, %v", f, err)
	}
}

// TestAddShareRefsFailedShardLeavesPendingUntouched: a missing fingerprint
// fails its shard's whole group — the committed entry AND the caller's
// own pending reservation in that shard keep their old counts.
func TestAddShareRefsFailedShardLeavesPendingUntouched(t *testing.T) {
	ix := openTestIndex(t)
	var pending, committed, missing metadata.Fingerprint // same shard, in sort order
	pending[31], committed[31], missing[31] = 1, 2, 3
	ix.PutShare(&ShareEntry{Fingerprint: committed, Container: "c", Size: 5, Refs: map[uint64]uint32{1: 1}})
	if st, err := ix.TryReserveShare(pending, 1, 5); err != nil || st != StatusReserved {
		t.Fatalf("reserve: %v %v", st, err)
	}
	err := ix.AddShareRefs([]metadata.Fingerprint{pending, committed, missing}, 1)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if err := ix.CommitShare(pending, "c"); err != nil {
		t.Fatal(err)
	}
	for _, f := range []metadata.Fingerprint{pending, committed} {
		e, err := ix.LookupShare(f)
		want := uint32(0)
		if f == committed {
			want = 1
		}
		if err != nil || e.Refs[1] != want {
			t.Fatalf("%s: refs %v err %v, want count %d", f, e, err, want)
		}
	}
	// And the good case still reaches the pending entry.
	if st, _ := ix.TryReserveShare(missing, 1, 5); st != StatusReserved {
		t.Fatal("reserve")
	}
	if err := ix.AddShareRefs([]metadata.Fingerprint{missing, missing, committed}, 1); err != nil {
		t.Fatal(err)
	}
	ix.CommitShare(missing, "c")
	if e, _ := ix.LookupShare(missing); e.Refs[1] != 2 {
		t.Fatalf("pending refs = %v, want 2", e.Refs)
	}
}
