package index

import (
	"fmt"
	"path/filepath"
	"testing"

	"cdstore/internal/lsmkv"
	"cdstore/internal/metadata"
)

// buildLegacyStore writes a pre-sharding single-store index (share and
// file entries directly in dir) and returns the entries it planted.
func buildLegacyStore(t *testing.T, dir string, shares int) ([]*ShareEntry, []*FileEntry) {
	t.Helper()
	db, err := lsmkv.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	var shareEntries []*ShareEntry
	for i := 0; i < shares; i++ {
		e := &ShareEntry{
			Fingerprint: metadata.FingerprintOf([]byte(fmt.Sprintf("legacy-share-%d", i))),
			Container:   fmt.Sprintf("container-%d", i%7),
			Size:        uint32(1000 + i),
			Refs:        map[uint64]uint32{1: uint32(i%3 + 1), 42: 2},
		}
		key := shareKey(e.Fingerprint)
		if err := db.Put(key[:], marshalShareEntry(e)); err != nil {
			t.Fatal(err)
		}
		shareEntries = append(shareEntries, e)
	}
	var fileEntries []*FileEntry
	for u := uint64(1); u <= 3; u++ {
		fe := &FileEntry{
			UserID:          u,
			Path:            fmt.Sprintf("/backups/user%d.tar", u),
			FileSize:        u * 1000,
			NumSecrets:      u * 10,
			RecipeContainer: fmt.Sprintf("recipe-%d", u),
		}
		if err := db.Put(fileKey(fe.UserID, fe.Path), marshalFileEntry(fe)); err != nil {
			t.Fatal(err)
		}
		fileEntries = append(fileEntries, fe)
	}
	// Flush so part of the data sits in .sst files and part (written
	// after) only in the WAL — the migration must read through both.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	extra := &ShareEntry{
		Fingerprint: metadata.FingerprintOf([]byte("wal-only-share")),
		Container:   "container-wal",
		Size:        77,
		Refs:        map[uint64]uint32{9: 1},
	}
	key := shareKey(extra.Fingerprint)
	if err := db.Put(key[:], marshalShareEntry(extra)); err != nil {
		t.Fatal(err)
	}
	shareEntries = append(shareEntries, extra)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return shareEntries, fileEntries
}

// TestOpenMigratesLegacySingleStore opens a directory holding the
// retired pre-sharding layout and verifies every share and file entry
// survives into the 64-shard layout, the legacy files are gone, and the
// migrated index reopens cleanly.
func TestOpenMigratesLegacySingleStore(t *testing.T) {
	dir := t.TempDir()
	// 300 shares spread across (nearly) all 64 shards.
	shares, files := buildLegacyStore(t, dir, 300)

	ix, err := Open(dir)
	if err != nil {
		t.Fatalf("Open on legacy dir: %v", err)
	}
	verify := func(ix *Index) {
		t.Helper()
		for _, want := range shares {
			got, err := ix.LookupShare(want.Fingerprint)
			if err != nil {
				t.Fatalf("share %s lost in migration: %v", want.Fingerprint, err)
			}
			if got.Container != want.Container || got.Size != want.Size || len(got.Refs) != len(want.Refs) {
				t.Fatalf("share %s mangled: got %+v want %+v", want.Fingerprint, got, want)
			}
			for u, c := range want.Refs {
				if got.Refs[u] != c {
					t.Fatalf("share %s user %d refcount %d, want %d", want.Fingerprint, u, got.Refs[u], c)
				}
			}
		}
		for _, want := range files {
			got, err := ix.LookupFile(want.UserID, want.Path)
			if err != nil {
				t.Fatalf("file %q lost in migration: %v", want.Path, err)
			}
			if *got != *want {
				t.Fatalf("file entry mangled: got %+v want %+v", got, want)
			}
		}
		n, err := ix.CountShares()
		if err != nil {
			t.Fatal(err)
		}
		if n != len(shares) {
			t.Fatalf("migrated index holds %d shares, want %d", n, len(shares))
		}
	}
	verify(ix)
	if legacy := legacyStoreFiles(dir); len(legacy) > 0 {
		t.Fatalf("legacy store files still present after migration: %v", legacy)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: no legacy files, plain sharded open, data still there.
	ix2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after migration: %v", err)
	}
	defer ix2.Close()
	verify(ix2)

	// The shard directories must actually be populated (the data did not
	// sneak back into a top-level store).
	if m, _ := filepath.Glob(filepath.Join(dir, "shards", "*", "*")); len(m) == 0 {
		t.Fatal("no files under dir/shards after migration")
	}
}

// TestOpenMigratesEmptyLegacyStore covers a legacy dir holding only an
// (empty) WAL — the state a fresh pre-sharding server left behind.
func TestOpenMigratesEmptyLegacyStore(t *testing.T) {
	dir := t.TempDir()
	db, err := lsmkv.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if len(legacyStoreFiles(dir)) == 0 {
		t.Skip("lsmkv left no files; nothing to migrate")
	}
	ix, err := Open(dir)
	if err != nil {
		t.Fatalf("Open on empty legacy dir: %v", err)
	}
	defer ix.Close()
	n, err := ix.CountShares()
	if err != nil || n != 0 {
		t.Fatalf("empty migration produced %d shares (err=%v)", n, err)
	}
}
