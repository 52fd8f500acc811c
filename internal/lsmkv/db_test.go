package lsmkv

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func openTestDB(t *testing.T, opts *Options) (*DB, string) {
	t.Helper()
	dir := t.TempDir()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, dir
}

func TestPutGetDelete(t *testing.T) {
	db, _ := openTestDB(t, nil)
	if err := db.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("k1"))
	if err != nil || string(v) != "v1" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := db.Delete([]byte("k1")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("k1")); err != ErrNotFound {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	// Deleting absent keys is fine.
	if err := db.Delete([]byte("never-existed")); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	db, _ := openTestDB(t, nil)
	if err := db.Put(nil, []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := db.Delete(nil); err == nil {
		t.Fatal("empty key delete accepted")
	}
}

func TestOverwrite(t *testing.T) {
	db, _ := openTestDB(t, nil)
	db.Put([]byte("k"), []byte("old"))
	db.Put([]byte("k"), []byte("new"))
	v, err := db.Get([]byte("k"))
	if err != nil || string(v) != "new" {
		t.Fatalf("Get = %q, %v", v, err)
	}
}

func TestFlushAndReadFromSSTable(t *testing.T) {
	db, _ := openTestDB(t, nil)
	for i := 0; i < 500; i++ {
		db.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("value-%d", i)))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Tables != 1 {
		t.Fatalf("tables = %d, want 1", db.Stats().Tables)
	}
	for i := 0; i < 500; i++ {
		v, err := db.Get([]byte(fmt.Sprintf("key-%04d", i)))
		if err != nil || string(v) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("key-%04d: %q, %v", i, v, err)
		}
	}
	if _, err := db.Get([]byte("key-9999")); err != ErrNotFound {
		t.Fatalf("absent key after flush: %v", err)
	}
}

func TestNewerTableShadowsOlder(t *testing.T) {
	db, _ := openTestDB(t, nil)
	db.Put([]byte("k"), []byte("v1"))
	db.Flush()
	db.Put([]byte("k"), []byte("v2"))
	db.Flush()
	v, err := db.Get([]byte("k"))
	if err != nil || string(v) != "v2" {
		t.Fatalf("Get = %q, %v; newest table must win", v, err)
	}
	// Tombstone in newer table shadows older value.
	db.Delete([]byte("k"))
	db.Flush()
	if _, err := db.Get([]byte("k")); err != ErrNotFound {
		t.Fatalf("tombstone not honoured: %v", err)
	}
}

func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("persist"), []byte("me"))
	db.Delete([]byte("gone"))
	// Simulate crash: close without Flush (Close flushes WAL buffer only).
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	v, err := db2.Get([]byte("persist"))
	if err != nil || string(v) != "me" {
		t.Fatalf("after recovery: %q, %v", v, err)
	}
	if _, err := db2.Get([]byte("gone")); err != ErrNotFound {
		t.Fatalf("deleted key resurrected: %v", err)
	}
}

// TestSyncSurvivesAbandonedDB pins the checkpoint contract: after Sync,
// a DB that is never closed (the process died) still replays every write
// on reopen, and no SSTable was built to get there.
func TestSyncSurvivesAbandonedDB(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() // only to release the descriptor once the test is over
	for i := 0; i < 300; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	db.Delete([]byte("k007"))
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := db.Stats().Tables; n != 0 {
		t.Fatalf("Sync built %d SSTables, want 0", n)
	}
	db2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 300; i++ {
		v, err := db2.Get([]byte(fmt.Sprintf("k%03d", i)))
		if i == 7 {
			if err != ErrNotFound {
				t.Fatalf("deleted key resurrected: %q, %v", v, err)
			}
			continue
		}
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%03d after replay: %q, %v", i, v, err)
		}
	}
}

// TestFlushEmptiesWALInPlace pins how a flush retires the log: the same
// file cut to zero length, not a new one (no unlink and create per flush),
// with writes after the flush landing at its start and replayed on reopen
// over the flushed table.
func TestFlushEmptiesWALInPlace(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	walPath := filepath.Join(dir, "wal.log")
	before, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("flushed"), []byte("old"))
	db.Put([]byte("kept"), []byte("table"))
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Fatal("flush replaced wal.log instead of truncating it")
	}
	if after.Size() != 0 {
		t.Fatalf("wal.log holds %d bytes after a flush, want 0", after.Size())
	}
	db.Put([]byte("flushed"), []byte("new"))
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	rec := int64(4 + 9 + len("flushed") + len("new"))
	if fi, _ := os.Stat(walPath); fi.Size() != rec {
		t.Fatalf("wal.log is %d bytes after one record, want %d (record not at offset 0)", fi.Size(), rec)
	}
	db2, err := Open(dir, nil) // db abandoned: the process died after Sync
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for k, want := range map[string]string{"flushed": "new", "kept": "table"} {
		if v, err := db2.Get([]byte(k)); err != nil || string(v) != want {
			t.Fatalf("%s after reopen: %q, %v; want %q", k, v, err, want)
		}
	}
}

// TestPeekMatchesGet checks the no-copy read against Get from the
// memtable and from an SSTable, and that a value handed out by Peek is
// not disturbed by a later overwrite of its key.
func TestPeekMatchesGet(t *testing.T) {
	db, _ := openTestDB(t, nil)
	db.Put([]byte("table"), []byte("on-disk"))
	db.Flush()
	db.Put([]byte("mem"), []byte("in-memory"))
	db.Delete([]byte("dead"))
	for _, k := range []string{"table", "mem", "dead", "absent"} {
		got, gerr := db.Get([]byte(k))
		peeked, perr := db.Peek([]byte(k))
		if gerr != perr || !bytes.Equal(got, peeked) {
			t.Fatalf("%s: Get %q,%v  Peek %q,%v", k, got, gerr, peeked, perr)
		}
	}
	held, _ := db.Peek([]byte("mem"))
	db.Put([]byte("mem"), []byte("REPLACED!"))
	if string(held) != "in-memory" {
		t.Fatalf("overwrite wrote through a peeked value: %q", held)
	}
	if v, _ := db.Peek([]byte("mem")); string(v) != "REPLACED!" {
		t.Fatalf("Peek after overwrite = %q", v)
	}
}

func TestWALTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("a"), []byte("1"))
	db.Put([]byte("b"), []byte("2"))
	db.Close()
	// Truncate the WAL mid-record.
	walPath := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	defer db2.Close()
	if v, err := db2.Get([]byte("a")); err != nil || string(v) != "1" {
		t.Fatalf("first record lost: %q, %v", v, err)
	}
	// The second record was torn; it's acceptable for it to be missing.
}

func TestSSTablePersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	db.Flush()
	db.Close()
	db2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 100; i++ {
		v, err := db2.Get([]byte(fmt.Sprintf("k%03d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%03d after reopen: %q, %v", i, v, err)
		}
	}
}

func TestCompaction(t *testing.T) {
	db, dir := openTestDB(t, nil)
	for round := 0; round < 4; round++ {
		for i := 0; i < 100; i++ {
			db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("r%d-v%d", round, i)))
		}
		db.Flush()
	}
	// Delete half, flush, compact.
	for i := 0; i < 50; i++ {
		db.Delete([]byte(fmt.Sprintf("k%03d", i)))
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().Tables; got != 1 {
		t.Fatalf("tables after compaction = %d, want 1", got)
	}
	// Old files physically removed.
	names, _ := filepath.Glob(filepath.Join(dir, "*.sst"))
	if len(names) != 1 {
		t.Fatalf("%d sst files on disk, want 1", len(names))
	}
	for i := 0; i < 50; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("k%03d", i))); err != ErrNotFound {
			t.Fatalf("deleted key k%03d survived compaction: %v", i, err)
		}
	}
	for i := 50; i < 100; i++ {
		v, err := db.Get([]byte(fmt.Sprintf("k%03d", i)))
		if err != nil || string(v) != fmt.Sprintf("r3-v%d", i) {
			t.Fatalf("k%03d lost newest version: %q, %v", i, v, err)
		}
	}
}

func TestAutomaticFlushOnThreshold(t *testing.T) {
	db, _ := openTestDB(t, &Options{MemtableBytes: 4096, MaxTables: 100})
	val := bytes.Repeat([]byte("x"), 512)
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("key-%02d", i)), val)
	}
	if db.Stats().Tables == 0 {
		t.Fatal("memtable never auto-flushed")
	}
	for i := 0; i < 50; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("key-%02d", i))); err != nil {
			t.Fatalf("key-%02d: %v", i, err)
		}
	}
}

func TestAutomaticCompactionOnTooManyTables(t *testing.T) {
	db, _ := openTestDB(t, &Options{MemtableBytes: 1024, MaxTables: 3})
	val := bytes.Repeat([]byte("y"), 300)
	for i := 0; i < 120; i++ {
		db.Put([]byte(fmt.Sprintf("key-%03d", i)), val)
	}
	if got := db.Stats().Tables; got > 4 {
		t.Fatalf("tables = %d; auto compaction not keeping up", got)
	}
}

// Count returns the number of live keys.
func (db *DB) Count() (int, error) {
	n := 0
	err := db.Scan(nil, func(_, _ []byte) error { n++; return nil })
	return n, err
}

// scanAll collects a prefix scan as "key=value" strings.
func scanAll(t *testing.T, db *DB, prefix string) []string {
	t.Helper()
	var got []string
	err := db.Scan([]byte(prefix), func(k, v []byte) error {
		got = append(got, string(k)+"="+string(v))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestScanPrefix(t *testing.T) {
	db, _ := openTestDB(t, nil)
	db.Put([]byte("file/alpha"), []byte("1"))
	db.Put([]byte("file/beta"), []byte("2"))
	db.Put([]byte("file/epsilon"), []byte("old"))
	db.Put([]byte("share/gamma"), []byte("3"))
	db.Flush()
	// A second table: the prefix spans both, this one shadows epsilon and
	// buries zeta under a tombstone the memtable does not know about.
	db.Put([]byte("file/epsilon"), []byte("5"))
	db.Put([]byte("file/zeta"), []byte("6"))
	db.Put([]byte("fild/before"), []byte("x")) // sorts just before the prefix
	db.Put([]byte("file0after"), []byte("x"))  // and just after it
	db.Flush()
	db.Delete([]byte("file/zeta"))
	db.Flush()
	// The memtable: a new key, a tombstone over a table's key, and a
	// value shadowing a table's.
	db.Put([]byte("file/delta"), []byte("4"))
	db.Delete([]byte("file/beta"))
	db.Put([]byte("file/alpha"), []byte("1'"))

	want := []string{"file/alpha=1'", "file/delta=4", "file/epsilon=5"}
	if got := scanAll(t, db, "file/"); !slices.Equal(got, want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}
	if got := scanAll(t, db, "file/e"); !slices.Equal(got, want[2:]) {
		t.Fatalf("narrow scan = %v, want %v", got, want[2:])
	}
	if got := scanAll(t, db, "nothing/"); len(got) != 0 {
		t.Fatalf("scan of an absent prefix = %v", got)
	}
	if got := scanAll(t, db, ""); len(got) != 6 {
		t.Fatalf("full scan = %v, want 6 keys", got)
	}
	wantErr := errors.New("stop")
	if err := db.Scan([]byte("file/"), func(_, _ []byte) error { return wantErr }); err != wantErr {
		t.Fatalf("scan returned %v, want fn's error", err)
	}
}

// TestScanStreamsAcrossStoreChanges: a scan longer than one locked range
// lets go of the store between ranges and while fn runs, so fn itself
// flushes, compacts and writes mid-scan. Every key that is live
// throughout is still visited exactly once, in order, with its value;
// keys outside the prefix never; a key written or deleted meanwhile at
// most once.
func TestScanStreamsAcrossStoreChanges(t *testing.T) {
	db, _ := openTestDB(t, nil)
	const n = 3*scanChunk + 17
	key := func(i int) []byte { return []byte(fmt.Sprintf("k/%05d", i)) }
	for i := 0; i < n; i++ { // two tables and the memtable, a third each
		db.Put(key(i), []byte(fmt.Sprint(i)))
		if i == n/3 || i == 2*n/3 {
			db.Flush()
		}
	}
	for i := 0; i < n; i += 7 { // overwritten where it lives or in a newer layer
		db.Put(key(i), []byte(fmt.Sprint(-i)))
	}
	db.Put([]byte("j/below"), []byte("x"))
	db.Put([]byte("l/above"), []byte("x"))

	touched := map[int]bool{5: true, n - 2: true, n - 3: true, n + 5: true}
	seen, last := 0, -1
	err := db.Scan([]byte("k/"), func(k, v []byte) error {
		var i int
		if _, err := fmt.Sscanf(string(k), "k/%05d", &i); err != nil || i <= last {
			return fmt.Errorf("visited %q after key %d (%v)", k, last, err)
		}
		last = i
		if want := i - 2*i*btoi(i%7 == 0); !touched[i] && string(v) != fmt.Sprint(want) {
			return fmt.Errorf("key %d = %q, want %d", i, v, want)
		}
		if !touched[i] {
			seen++
		}
		switch seen {
		case 10:
			return db.Flush() // the memtable this scan snapshotted becomes a table
		case scanChunk + 100:
			return db.Compact() // every table it was reading is replaced
		case scanChunk + 200:
			db.Delete(key(5))                     // already visited
			db.Delete(key(n - 2))                 // not yet
			db.Put(key(n-3), []byte("rewritten")) // not yet
			return db.Put(key(n+5), nil)          // new, past everything
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := n - 3; seen != want {
		t.Fatalf("visited %d of the %d keys live throughout", seen, want)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestCount(t *testing.T) {
	db, _ := openTestDB(t, nil)
	for i := 0; i < 10; i++ {
		db.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	db.Delete([]byte("k0"))
	n, err := db.Count()
	if err != nil || n != 9 {
		t.Fatalf("Count = %d, %v; want 9", n, err)
	}
}

func TestClosedDBErrors(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if err := db.Put([]byte("k"), []byte("v")); err != ErrClosed {
		t.Fatalf("Put on closed: %v", err)
	}
	if _, err := db.Get([]byte("k")); err != ErrClosed {
		t.Fatalf("Get on closed: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestModelCheckRandomOps(t *testing.T) {
	// Property test: the DB must agree with a plain map under a random
	// workload with interleaved flushes and compactions.
	db, _ := openTestDB(t, &Options{MemtableBytes: 2048, MaxTables: 3})
	model := make(map[string]string)
	rng := rand.New(rand.NewSource(77))
	for op := 0; op < 3000; op++ {
		key := fmt.Sprintf("key-%03d", rng.Intn(300))
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // put
			val := fmt.Sprintf("val-%d", op)
			if err := db.Put([]byte(key), []byte(val)); err != nil {
				t.Fatal(err)
			}
			model[key] = val
		case 6, 7: // delete
			if err := db.Delete([]byte(key)); err != nil {
				t.Fatal(err)
			}
			delete(model, key)
		case 8: // get + compare, then a prefix scan + compare
			prefix := key[:rng.Intn(len(key)+1)]
			var live []string
			for k, v := range model {
				if strings.HasPrefix(k, prefix) {
					live = append(live, k+"="+v)
				}
			}
			slices.Sort(live)
			if got := scanAll(t, db, prefix); !slices.Equal(got, live) {
				t.Fatalf("op %d: Scan(%q) = %v, want %v", op, prefix, got, live)
			}
			v, err := db.Get([]byte(key))
			want, ok := model[key]
			if ok && (err != nil || string(v) != want) {
				t.Fatalf("op %d: Get(%s) = %q, %v; want %q", op, key, v, err, want)
			}
			if !ok && err != ErrNotFound {
				t.Fatalf("op %d: Get(%s) = %v; want ErrNotFound", op, key, err)
			}
		case 9:
			if rng.Intn(4) == 0 {
				if err := db.Compact(); err != nil {
					t.Fatal(err)
				}
			} else if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Final full comparison.
	for key, want := range model {
		v, err := db.Get([]byte(key))
		if err != nil || string(v) != want {
			t.Fatalf("final: Get(%s) = %q, %v; want %q", key, v, err, want)
		}
	}
	n, err := db.Count()
	if err != nil || n != len(model) {
		t.Fatalf("Count = %d, %v; model has %d", n, err, len(model))
	}
}

func TestCorruptSSTableRejected(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("k"), []byte("v"))
	db.Flush()
	db.Close()
	names, _ := filepath.Glob(filepath.Join(dir, "*.sst"))
	if len(names) != 1 {
		t.Fatalf("want 1 table, got %d", len(names))
	}
	data, _ := os.ReadFile(names[0])
	// Corrupt the footer magic.
	data[len(data)-1] ^= 0xFF
	os.WriteFile(names[0], data, 0o644)
	if _, err := Open(dir, nil); err == nil {
		t.Fatal("corrupt table accepted on open")
	}
}

func TestBlockCacheServesRepeatedReads(t *testing.T) {
	db, _ := openTestDB(t, nil)
	for i := 0; i < 200; i++ {
		db.Put([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte("v"), 100))
	}
	db.Flush()
	for i := 0; i < 50; i++ {
		db.Get([]byte("k0001"))
	}
	st := db.Stats()
	if st.CacheHits == 0 {
		t.Fatal("block cache never hit on repeated reads")
	}
}

func BenchmarkPut(b *testing.B) {
	dir := b.TempDir()
	db, err := Open(dir, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte("v"), 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Put([]byte(fmt.Sprintf("key-%09d", i)), val)
	}
}

func BenchmarkGetFromSSTable(b *testing.B) {
	dir := b.TempDir()
	db, err := Open(dir, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 10000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%09d", i)), []byte("value"))
	}
	db.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("key-%09d", i%10000))); err != nil {
			b.Fatal(err)
		}
	}
}
