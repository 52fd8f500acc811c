package index

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cdstore/internal/lsmkv"
	"cdstore/internal/metadata"
)

// testdata/one_store_index holds index directories in the layout this
// package reads — <variant>/shares, written by writeGoldenIndex with the
// frozen reference encoder straight through lsmkv — one per shape a
// restart can find on disk:
//
//	wal      every entry only in the WAL (never flushed)
//	sst      every entry only in SSTables, half in each of two
//	mixed    half in an SSTable, half in the WAL, which also overwrites
//	         entry 0 (an extra owner) and deletes entry 1
//	healthy  as mixed, without the damaged entries
//
// It was regenerated, deliberately, by the change that put the share
// index in one store. testdata/parent_index is the fixture it replaced:
// the same entries as the commit before the entry view and the hash
// memtable wrote them — its marshalShareEntry, its skiplist-fed SSTable
// writer, its WAL — into shards/00 and shards/01. Open refuses that
// layout now (legacy_test.go), so it is read store by store with lsmkv
// as the oracle for entry bytes: every value in it must decode to what
// the index answers from the new fixture. goldenEntry reproduces what
// both generators stored; its fingerprints all fall in the first two
// stripes because the old fixture populated only those.

const goldenEntries = 40

func goldenEntry(i int) *ShareEntry {
	var f metadata.Fingerprint
	for salt := 0; ; salt++ {
		f = metadata.FingerprintOf([]byte(fmt.Sprintf("golden-%d-%d", i, salt)))
		if shardOf(f) < 2 {
			break
		}
	}
	e := &ShareEntry{
		Fingerprint: f,
		Container:   fmt.Sprintf("share-u1-%012d", i/4),
		Size:        uint32(1000 + i),
		Refs:        map[uint64]uint32{1: uint32(i % 3), 42: 2},
	}
	if i%5 == 0 {
		e.Refs[7] = 0
	}
	if i%10 == 3 {
		e.Damaged, e.Container = true, ""
	}
	return e
}

// writeGoldenIndex writes the given variant of the fixture into dir.
func writeGoldenIndex(t *testing.T, dir, variant string) {
	t.Helper()
	db, err := lsmkv.Open(filepath.Join(dir, "shares"), nil)
	if err != nil {
		t.Fatal(err)
	}
	put := func(e *ShareEntry) {
		if variant == "healthy" && e.Damaged {
			return
		}
		key := shareKey(e.Fingerprint)
		if err := db.Append([][]byte{key[:]}, [][]byte{marshalShareEntry(e)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < goldenEntries; i++ {
		put(goldenEntry(i))
		if last := i == goldenEntries-1; variant == "sst" && last || variant != "wal" && i == goldenEntries/2-1 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if variant == "mixed" || variant == "healthy" {
		e := goldenEntry(0)
		e.Refs[99] = 5
		put(e)
		key := shareKey(goldenEntry(1).Fingerprint)
		if err := db.AppendDelete(key[:]); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// goldenState is what a directory of the given variant must answer.
func goldenState(variant string) map[metadata.Fingerprint]*ShareEntry {
	want := map[metadata.Fingerprint]*ShareEntry{}
	for i := 0; i < goldenEntries; i++ {
		if e := goldenEntry(i); !(variant == "healthy" && e.Damaged) {
			want[e.Fingerprint] = e
		}
	}
	if variant == "mixed" || variant == "healthy" {
		want[goldenEntry(0).Fingerprint].Refs[99] = 5
		delete(want, goldenEntry(1).Fingerprint)
	}
	return want
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(filepath.Join(dst, rel))
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkAgainst asks the index every kind of question about every golden
// fingerprint and compares with want.
func checkAgainst(t *testing.T, ix *Index, want map[metadata.Fingerprint]*ShareEntry) {
	t.Helper()
	var fps []metadata.Fingerprint
	for i := 0; i < goldenEntries; i++ {
		fps = append(fps, goldenEntry(i).Fingerprint)
	}
	for _, user := range []uint64{1, 7, 42, 99, 5} {
		owned, err := ix.SharesOwnedBy(fps, user)
		if err != nil {
			t.Fatal(err)
		}
		locs, err := ix.LocateShares(nil, fps, user)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range fps {
			e, has := want[f], false
			if e != nil {
				_, has = e.Refs[user]
			}
			if wantOwned := has && !e.Damaged; owned[i] != wantOwned {
				t.Fatalf("entry %d user %d: owned=%v, want %v", i, user, owned[i], wantOwned)
			}
			wantLoc := ShareLocation{}
			if e != nil {
				wantLoc = ShareLocation{Found: true, Owned: has, Container: e.Container, Size: e.Size}
			}
			if locs[i] != wantLoc {
				t.Fatalf("entry %d user %d: located %+v, want %+v", i, user, locs[i], wantLoc)
			}
		}
	}
	for i, f := range fps {
		got, err := ix.LookupShare(f)
		if want[f] == nil {
			if err != ErrNotFound {
				t.Fatalf("entry %d: %+v, %v; want ErrNotFound", i, got, err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, want[f]) {
			t.Fatalf("entry %d: %+v, %v; want %+v", i, got, err, want[f])
		}
	}
	n, err := ix.CountShares()
	if err != nil || n != len(want) {
		t.Fatalf("CountShares = %d, %v; want %d", n, err, len(want))
	}
}

// checkAgainstOldFixture reads the parent_index directory of the given
// variant store by store and compares every entry's frozen decoding with
// what ix answers for that fingerprint.
func checkAgainstOldFixture(t *testing.T, ix *Index, variant string) {
	t.Helper()
	old := t.TempDir()
	copyTree(t, filepath.Join("testdata", "parent_index", variant), old)
	stores, _ := filepath.Glob(filepath.Join(old, "shards", "*"))
	n := 0
	for _, store := range stores {
		db, err := lsmkv.Open(store, nil)
		if err != nil {
			t.Fatal(err)
		}
		err = db.Scan([]byte(sharePrefix), func(k, v []byte) error {
			n++
			var f metadata.Fingerprint
			copy(f[:], k[len(sharePrefix):])
			was, err := referenceUnmarshal(f, v)
			if err != nil {
				return err
			}
			if is, err := ix.LookupShare(f); err != nil || !reflect.DeepEqual(is, was) {
				return fmt.Errorf("%s: index answers %+v (%v), old fixture holds %+v", store, is, err, was)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		db.Close()
	}
	if have, err := ix.CountShares(); err != nil || have != n || len(stores) != 2 {
		t.Fatalf("old fixture holds %d entries in %d stores, the index %d (%v)", n, len(stores), have, err)
	}
}

// TestGoldenGeneratorReproducesFixture: writeGoldenIndex, run today,
// writes an index that answers as the checked-in fixture does — the
// recipe in this file is the one the files came from.
func TestGoldenGeneratorReproducesFixture(t *testing.T) {
	for _, variant := range []string{"wal", "sst", "mixed", "healthy"} {
		dir := t.TempDir()
		writeGoldenIndex(t, dir, variant)
		ix, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainst(t, ix, goldenState(variant))
		checkAgainstOldFixture(t, ix, variant)
		ix.Close()
	}
}

// TestOpensParentCommitIndex is the format-stability check: directories
// written before this change answer every query identically, hold
// entries that decode to what the older shards/NN fixture holds, keep
// answering after the new code has written to them (reference
// settlement, a repair-reserve of a damaged entry, flush, reopen), and
// the entries the new code writes still decode with the frozen decoder.
func TestOpensParentCommitIndex(t *testing.T) {
	for _, variant := range []string{"wal", "sst", "mixed", "healthy"} {
		t.Run(variant, func(t *testing.T) {
			dir := t.TempDir()
			copyTree(t, filepath.Join("testdata", "one_store_index", variant), dir)
			ix, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { ix.Close() }()
			want := goldenState(variant)
			checkAgainst(t, ix, want)
			checkAgainstOldFixture(t, ix, variant)
			// Write through the view onto the old bytes.
			var settle []metadata.Fingerprint
			for i := 2; i < goldenEntries; i += 3 {
				e := want[goldenEntry(i).Fingerprint]
				if e == nil {
					continue
				}
				settle = append(settle, e.Fingerprint, e.Fingerprint)
				e.Refs[42] += 2
			}
			if err := ix.AddShareRefs(settle, 42); err != nil {
				t.Fatal(err)
			}
			for f, e := range want {
				if !e.Damaged {
					continue
				}
				if st, err := ix.TryReserveShare(f, 8, e.Size); err != nil || st != StatusReserved {
					t.Fatalf("repair-reserve of damaged entry: %v, %v", st, err)
				}
				if err := ix.CommitShare(f, "share-u8-000000000777"); err != nil {
					t.Fatal(err)
				}
				e.Damaged, e.Container, e.Refs[8] = false, "share-u8-000000000777", 0
			}
			checkAgainst(t, ix, want)
			if err := ix.Flush(); err != nil {
				t.Fatal(err)
			}
			checkAgainst(t, ix, want)
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			if ix, err = Open(dir); err != nil {
				t.Fatal(err)
			}
			checkAgainst(t, ix, want)
			n := 0
			err = ix.shares.Scan([]byte(sharePrefix), func(k, v []byte) error {
				n++
				var f metadata.Fingerprint
				copy(f[:], k[len(sharePrefix):])
				got, err := referenceUnmarshal(f, v)
				if err != nil || !reflect.DeepEqual(got, want[f]) {
					return fmt.Errorf("frozen decoder reads %+v (%v), want %+v", got, err, want[f])
				}
				return nil
			})
			if err != nil || n != len(want) {
				t.Fatalf("frozen decoder read %d of %d entries: %v", n, len(want), err)
			}
		})
	}
}
