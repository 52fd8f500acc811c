package index

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cdstore/internal/lsmkv"
)

// dirEntries lists everything under dir, so a test can show a refused
// Open neither created nor removed anything.
func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.Walk(dir, func(path string, _ os.FileInfo, err error) error {
		out = append(out, path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// refused asserts Open turns dir away with an error naming the directory
// and the layout found there, leaving the directory as it was.
func refused(t *testing.T, dir, layout string) {
	t.Helper()
	before := dirEntries(t, dir)
	ix, err := Open(dir)
	if err == nil {
		ix.Close()
		t.Fatalf("Open accepted an index directory holding %s", layout)
	}
	if !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), layout) {
		t.Fatalf("error names neither the directory nor %q: %v", layout, err)
	}
	if after := dirEntries(t, dir); strings.Join(after, "\n") != strings.Join(before, "\n") {
		t.Fatalf("refusal changed the directory: %v -> %v", before, after)
	}
}

// TestOpenRefusesSingleStoreLayout: a directory with lsmkv files directly
// in it (part flushed to an .sst, part only in the WAL) is not opened as
// an empty index beside them; the error names the directory, and nothing
// is created or removed there.
func TestOpenRefusesSingleStoreLayout(t *testing.T) {
	dir := t.TempDir()
	db, err := lsmkv.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("flushed"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("wal-only"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	refused(t, dir, "00000000.sst")
}

// TestOpenRefusesStorePerStripeLayout: the shards/NN directories every
// earlier version wrote (here the parent-commit fixture, and a bare
// shards/ directory) are refused by name, not read and not migrated.
func TestOpenRefusesStorePerStripeLayout(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "parent_index", "mixed"), dir)
	refused(t, dir, "holds shards")

	empty := t.TempDir()
	if err := os.Mkdir(filepath.Join(empty, "shards"), 0o755); err != nil {
		t.Fatal(err)
	}
	refused(t, empty, "shards/NN")
}

// TestOpenCreatesTwoStores: a fresh index directory holds the share store
// and the file store and nothing else, each a WAL and no table.
func TestOpenCreatesTwoStores(t *testing.T) {
	dir := t.TempDir()
	ix, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	want := []string{dir, filepath.Join(dir, "files"), filepath.Join(dir, "files", "wal.log"),
		filepath.Join(dir, "shares"), filepath.Join(dir, "shares", "wal.log")}
	if got := dirEntries(t, dir); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("fresh index directory holds %v, want %v", got, want)
	}
}
