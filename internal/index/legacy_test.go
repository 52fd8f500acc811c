package index

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cdstore/internal/lsmkv"
)

// TestOpenRefusesSingleStoreLayout: a directory with lsmkv files directly
// in it (part flushed to an .sst, part only in the WAL) is not opened as
// an empty sharded index beside them; the error names the directory, and
// nothing is created or removed there.
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
	before := legacyStoreFiles(dir)
	if len(before) == 0 {
		t.Fatal("single-store fixture left no lsmkv files")
	}

	ix, err := Open(dir)
	if err == nil {
		ix.Close()
		t.Fatal("Open accepted a single-store index directory")
	}
	if !strings.Contains(err.Error(), dir) {
		t.Fatalf("error does not name the directory: %v", err)
	}
	if after := legacyStoreFiles(dir); len(after) != len(before) {
		t.Fatalf("refusal changed the old files: %v -> %v", before, after)
	}
	for _, sub := range []string{"shards", "files"} {
		if _, err := os.Stat(filepath.Join(dir, sub)); !os.IsNotExist(err) {
			t.Fatalf("refusal created %s (stat err %v)", sub, err)
		}
	}
}
