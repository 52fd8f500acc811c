package lsmkv

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func batchKV(n int) (keys, values [][]byte) {
	for i := 0; i < n; i++ {
		keys = append(keys, []byte(fmt.Sprintf("bkey-%04d", i)))
		values = append(values, []byte(fmt.Sprintf("bval-%d", i)))
	}
	return keys, values
}

func TestPutBatchBasic(t *testing.T) {
	db, _ := openTestDB(t, nil)
	keys, values := batchKV(200)
	if err := db.PutBatch(keys, values); err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		v, err := db.Get(keys[i])
		if err != nil || string(v) != string(values[i]) {
			t.Fatalf("key %q: %q, %v", keys[i], v, err)
		}
	}
	// Empty batch is a no-op.
	if err := db.PutBatch(nil, nil); err != nil {
		t.Fatal(err)
	}
	// Mismatched lengths and empty keys are rejected before any write.
	if err := db.PutBatch(keys[:2], values[:1]); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if err := db.PutBatch([][]byte{nil}, [][]byte{[]byte("v")}); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestPutBatchOverwriteOrder(t *testing.T) {
	db, _ := openTestDB(t, nil)
	// Later entries in a batch shadow earlier ones, same as sequential Puts.
	err := db.PutBatch(
		[][]byte{[]byte("k"), []byte("k")},
		[][]byte{[]byte("old"), []byte("new")},
	)
	if err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("k"))
	if err != nil || string(v) != "new" {
		t.Fatalf("Get = %q, %v; last write in batch must win", v, err)
	}
}

// TestPutBatchGroupCommitSyncCount is the core group-commit assertion:
// under SyncWAL, a batch of N records costs exactly one fsync where N
// sequential Puts cost N.
func TestPutBatchGroupCommitSyncCount(t *testing.T) {
	db, _ := openTestDB(t, &Options{SyncWAL: true})
	keys, values := batchKV(64)
	if err := db.PutBatch(keys, values); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().WALSyncs; got != 1 {
		t.Fatalf("WALSyncs after one 64-record batch = %d, want 1", got)
	}
	for i := range keys {
		if err := db.Put(keys[i], values[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Stats().WALSyncs; got != 1+64 {
		t.Fatalf("WALSyncs after 64 sequential Puts = %d, want 65", got)
	}
}

// TestAppendCommitIsOneSync: records appended in several groups, a
// deletion among them, are readable at once and cost nothing durable
// until Commit, which is one fsync for all of them — and on the file: an
// abandoned store reopened from the directory has every record.
func TestAppendCommitIsOneSync(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, &Options{SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	keys, values := batchKV(48)
	for lo := 0; lo < len(keys); lo += 16 {
		if err := db.Append(keys[lo:lo+16], values[lo:lo+16]); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AppendDelete(keys[7]); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(keys[:2], values[:1]); err == nil {
		t.Fatal("Append accepted 2 keys with 1 value")
	}
	if v, err := db.Get(keys[40]); err != nil || !bytes.Equal(v, values[40]) {
		t.Fatalf("appended record not readable before Commit: %q, %v", v, err)
	}
	if got := db.Stats().WALSyncs; got != 0 {
		t.Fatalf("WALSyncs before Commit = %d, want 0", got)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().WALSyncs; got != 1 {
		t.Fatalf("WALSyncs after Commit of 3 groups and a deletion = %d, want 1", got)
	}
	re, err := Open(dir, nil) // db abandoned: the process died after Commit
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := range keys {
		v, err := re.Get(keys[i])
		if i == 7 && err != ErrNotFound {
			t.Fatalf("deleted record after reopen: %q, %v", v, err)
		}
		if i != 7 && (err != nil || !bytes.Equal(v, values[i])) {
			t.Fatalf("record %d after reopen: %q, %v", i, v, err)
		}
	}
}

func TestPutBatchSyncCountSurvivesFlush(t *testing.T) {
	db, _ := openTestDB(t, &Options{SyncWAL: true})
	keys, values := batchKV(8)
	if err := db.PutBatch(keys, values); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Flush rotates the WAL file; the per-DB counter must not reset.
	if got := db.Stats().WALSyncs; got != 1 {
		t.Fatalf("WALSyncs after flush = %d, want 1", got)
	}
}

func TestPutBatchNoSyncWhenDisabled(t *testing.T) {
	db, _ := openTestDB(t, nil) // SyncWAL false
	keys, values := batchKV(32)
	if err := db.PutBatch(keys, values); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().WALSyncs; got != 0 {
		t.Fatalf("WALSyncs with sync disabled = %d, want 0", got)
	}
}

func TestPutBatchWALRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, &Options{SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	keys, values := batchKV(100)
	if err := db.PutBatch(keys, values); err != nil {
		t.Fatal(err)
	}
	// Simulate crash: close without Flush, reopen, everything replays.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := range keys {
		v, err := db2.Get(keys[i])
		if err != nil || string(v) != string(values[i]) {
			t.Fatalf("after recovery key %q: %q, %v", keys[i], v, err)
		}
	}
}

// TestPutBatchTornGroupKeepsDurablePrefix: records inside a group are
// individually CRC-framed, so a crash mid-group loses only the torn
// suffix — the durable prefix replays.
func TestPutBatchTornGroupKeepsDurablePrefix(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys, values := batchKV(10)
	if err := db.PutBatch(keys, values); err != nil {
		t.Fatal(err)
	}
	db.Close()
	walPath := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-way through the group.
	if err := os.WriteFile(walPath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("torn group should be tolerated: %v", err)
	}
	defer db2.Close()
	// The first record of the group is well within the surviving half.
	if v, err := db2.Get(keys[0]); err != nil || string(v) != string(values[0]) {
		t.Fatalf("first record of torn group lost: %q, %v", v, err)
	}
}

func TestPutBatchTriggersFlushOnThreshold(t *testing.T) {
	db, _ := openTestDB(t, &Options{MemtableBytes: 4 * 1024})
	var keys, values [][]byte
	for i := 0; i < 64; i++ {
		keys = append(keys, []byte(fmt.Sprintf("flush-%04d", i)))
		values = append(values, make([]byte, 256))
	}
	if err := db.PutBatch(keys, values); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Tables == 0 {
		t.Fatal("large batch did not trigger memtable flush")
	}
	for i := range keys {
		if _, err := db.Get(keys[i]); err != nil {
			t.Fatalf("key %q lost across batch-triggered flush: %v", keys[i], err)
		}
	}
}

func TestPutBatchClosedDB(t *testing.T) {
	db, _ := openTestDB(t, nil)
	db.Close()
	keys, values := batchKV(1)
	if err := db.PutBatch(keys, values); err != ErrClosed {
		t.Fatalf("PutBatch on closed DB = %v, want ErrClosed", err)
	}
}
