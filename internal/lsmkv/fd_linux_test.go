package lsmkv

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func openDescriptors(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(fds)
}

// TestOpenFailureClosesTables: a store whose second table has a corrupt
// footer fails to open with ErrCorruptTable, and the first table, opened
// before the second was read, does not keep its descriptor.
func TestOpenFailureClosesTables(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"first", "second"} {
		if err := put(db, []byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "*.sst"))
	if len(names) != 2 {
		t.Fatalf("want 2 tables, got %d", len(names))
	}
	data, err := os.ReadFile(names[1])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // the footer magic
	if err := os.WriteFile(names[1], data, 0o644); err != nil {
		t.Fatal(err)
	}

	before := openDescriptors(t)
	if _, err := Open(dir, nil); !errors.Is(err, ErrCorruptTable) {
		t.Fatalf("Open of a store with a corrupt table: %v, want ErrCorruptTable", err)
	}
	if after := openDescriptors(t); after != before {
		t.Fatalf("a failed Open left %d descriptors open", after-before)
	}
}
