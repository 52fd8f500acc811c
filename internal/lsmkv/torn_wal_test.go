package lsmkv

import (
	"os"
	"path/filepath"
	"testing"
)

// TestTornGroupReplaySweep is the exhaustive partial-write injection for
// group commit: one batch is written as a single WAL group, then the WAL
// is replayed from every possible truncation point — simulating a crash
// after any number of bytes of the group reached disk. At every point:
//
//   - Open must succeed (a torn tail is a normal crash artifact, never a
//     refusal to start), and
//   - the surviving keys must be exactly a prefix of the batch, in batch
//     order: records are individually CRC-framed inside the group, so a
//     record is durable iff its whole frame landed, and no record can
//     survive while an earlier one is lost.
func TestTornGroupReplaySweep(t *testing.T) {
	src := t.TempDir()
	db, err := Open(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys, values := batchKV(12)
	if err := putBatch(db, keys, values); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(src, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}

	prevDurable := -1
	for cut := 0; cut <= len(wal); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		db2, err := Open(dir, nil)
		if err != nil {
			t.Fatalf("cut=%d: Open failed on torn WAL: %v", cut, err)
		}
		durable := 0
		for i := range keys {
			v, err := db2.Get(keys[i])
			switch {
			case err == nil:
				if durable != i {
					t.Fatalf("cut=%d: key %d durable but key %d lost — not a prefix", cut, i, durable)
				}
				if string(v) != string(values[i]) {
					t.Fatalf("cut=%d: key %d replayed with wrong value %q", cut, i, v)
				}
				durable = i + 1
			case err == ErrNotFound:
				// Once one record is torn, all later ones must be too.
			default:
				t.Fatalf("cut=%d key %d: %v", cut, i, err)
			}
		}
		db2.Close()
		// More surviving bytes can never mean fewer surviving records.
		if durable < prevDurable {
			t.Fatalf("cut=%d: durable records went from %d to %d as bytes grew", cut, prevDurable, durable)
		}
		prevDurable = durable
	}
	if prevDurable != len(keys) {
		t.Fatalf("full WAL replayed only %d of %d records", prevDurable, len(keys))
	}
}

// TestTornGroupMidRecordFlip: a bit flip inside the group (not just a
// truncation) must likewise cost only the records from the damaged frame
// onward — the CRC on each frame stops replay at the first bad record
// rather than poisoning the store or failing Open.
func TestTornGroupMidRecordFlip(t *testing.T) {
	src := t.TempDir()
	db, err := Open(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys, values := batchKV(8)
	if err := putBatch(db, keys, values); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(src, "wal.log")
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	wal[len(wal)/2] ^= 0x40
	if err := os.WriteFile(walPath, wal, 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(src, nil)
	if err != nil {
		t.Fatalf("Open failed on flipped WAL byte: %v", err)
	}
	defer db2.Close()
	if v, err := db2.Get(keys[0]); err != nil || string(v) != string(values[0]) {
		t.Fatalf("first record lost to a mid-group flip: %q, %v", v, err)
	}
	sawLost := false
	for i := range keys {
		_, err := db2.Get(keys[i])
		if err == ErrNotFound {
			sawLost = true
		} else if err != nil {
			t.Fatalf("key %d: %v", i, err)
		} else if sawLost {
			t.Fatalf("key %d survived after an earlier record was dropped", i)
		}
	}
	if !sawLost {
		t.Fatal("flip at the midpoint damaged no record frame?")
	}
}

// TestWriteAfterTornTailSurvivesReopen: a crash mid-record leaves a torn
// tail; Open must cut it, or the O_APPEND writes of the next process land
// behind the tear and a second crash silently loses them. Tear the log at
// every offset inside the last record, reopen, Put+Sync, abandon the DB
// (no Close, as after kill -9), reopen: old and new records are present.
func TestWriteAfterTornTailSurvivesReopen(t *testing.T) {
	src := t.TempDir()
	db, err := Open(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys, values := batchKV(3)
	if err := putBatch(db, keys, values); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(src, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	recLen := len(wal) / len(keys) // batchKV records are equal-sized
	intact := len(wal) - recLen

	for cut := intact; cut < len(wal); cut++ {
		dir := t.TempDir()
		walPath := filepath.Join(dir, "wal.log")
		if err := os.WriteFile(walPath, wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		db2, err := Open(dir, nil)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if fi, err := os.Stat(walPath); err != nil || fi.Size() != int64(intact) {
			t.Fatalf("cut=%d: wal is %d bytes after Open, want the %d-byte valid prefix", cut, fi.Size(), intact)
		}
		if err := put(db2, []byte("after-tear"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := db2.Sync(); err != nil {
			t.Fatal(err)
		}
		// db2 is abandoned, not closed.

		db3, err := Open(dir, nil)
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if v, err := db3.Get([]byte("after-tear")); err != nil || string(v) != "v" {
			t.Fatalf("cut=%d: write acknowledged after the tear is lost: %q, %v", cut, v, err)
		}
		for i := range keys[:len(keys)-1] {
			if v, err := db3.Get(keys[i]); err != nil || string(v) != string(values[i]) {
				t.Fatalf("cut=%d: key %d: %q, %v", cut, i, v, err)
			}
		}
		if _, err := db3.Get(keys[len(keys)-1]); err != ErrNotFound {
			t.Fatalf("cut=%d: torn record resurfaced: %v", cut, err)
		}
		db3.Close()
		db2.Close()
	}
}
