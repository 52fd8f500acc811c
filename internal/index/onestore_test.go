package index

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cdstore/internal/metadata"
)

// fpInStripe returns a fingerprint of the given stripe, distinct per salt.
func fpInStripe(stripe, salt int) metadata.Fingerprint {
	for n := 0; ; n++ {
		if f := fp(fmt.Sprintf("stripe-%d-%d-%d", stripe, salt, n)); shardOf(f) == stripe {
			return f
		}
	}
}

// shareState reads the whole share index into a map.
func shareState(t *testing.T, ix *Index) map[metadata.Fingerprint]*ShareEntry {
	t.Helper()
	state := map[metadata.Fingerprint]*ShareEntry{}
	err := ix.ScanShares(func(e *ShareEntry) error {
		state[e.Fingerprint] = e
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return state
}

// TestTornShareWALKeepsDurablePrefix is the index-level twin of lsmkv's
// TestPutBatchTornGroupKeepsDurablePrefix: every kind of index write,
// single and batched, over fingerprints of 12 stripes, goes through the
// one share WAL in the order the stripes appended — a batch's records in
// stripe order, one per entry it changed. Tear that log at every record
// boundary (and inside every record) and reopen: the index is exactly
// the model's state after that many records, never a later write
// without an earlier one.
func TestTornShareWALKeepsDurablePrefix(t *testing.T) {
	dir := t.TempDir()
	ix, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const stripes = 12
	fps := make([]metadata.Fingerprint, stripes)
	names := make([]string, stripes)
	for i := range fps {
		fps[i] = fpInStripe(5*i+1, 0)
		names[i] = fmt.Sprintf("share-u1-%012d", i%3)
	}

	// model[r] is the index after the WAL's first r records.
	model := []map[metadata.Fingerprint]*ShareEntry{{}}
	// wrote runs one index call that changes changed's entries and files
	// the states it passes through: one record per entry, in stripe order.
	wrote := func(call func() error, changed ...metadata.Fingerprint) {
		t.Helper()
		if err := call(); err != nil {
			t.Fatal(err)
		}
		after := shareState(t, ix)
		slices.SortStableFunc(changed, func(a, b metadata.Fingerprint) int { return shardOf(a) - shardOf(b) })
		for _, f := range changed {
			next := map[metadata.Fingerprint]*ShareEntry{}
			for k, v := range model[len(model)-1] {
				next[k] = v
			}
			if e, ok := after[f]; ok {
				next[f] = e
			} else {
				delete(next, f)
			}
			model = append(model, next)
		}
		if !reflect.DeepEqual(model[len(model)-1], after) {
			t.Fatalf("the call changed entries beyond %v", changed)
		}
	}
	pick := func(idx ...int) []metadata.Fingerprint {
		out := make([]metadata.Fingerprint, len(idx))
		for i, j := range idx {
			out[i] = fps[j]
		}
		return out
	}

	reserveAll(t, ix, fps, 1)
	order := []int{7, 2, 11, 0, 5, 9, 1, 10, 3, 8, 4, 6} // not the stripes' order
	shuffled, shuffledNames := pick(order...), make([]string, stripes)
	for i, j := range order {
		shuffledNames[i] = names[j]
	}
	wrote(func() error { return ix.CommitShares(shuffled, shuffledNames) }, pick(order...)...)
	wrote(func() error { _, err := ix.TryReserveShare(fps[3], 2, 64); return err }, fps[3])
	wrote(func() error { return ix.AddShareRefs(pick(9, 0, 9, 4, 0, 9, 6), 1) }, pick(9, 0, 4, 6)...)
	wrote(func() error { return ix.AddShareRefs(pick(3, 8), 2) }, pick(3, 8)...)
	wrote(func() error { return ix.ReleaseShareRefs(pick(9, 5, 0, 9), 1) }, pick(9, 5, 0)...) // 5 held only its marker: deleted
	wrote(func() error { _, err := ix.RepointShares(pick(10, 1, 7), names[1], "share-u1-moved"); return err }, pick(10, 1, 7)...)
	wrote(func() error { _, err := ix.MarkSharesDamaged(pick(11, 2), names[2]); return err }, pick(11, 2)...)
	if st, err := ix.TryReserveShare(fps[2], 2, 64); err != nil || st != StatusReserved {
		t.Fatalf("repair-reserve: %v, %v", st, err)
	}
	wrote(func() error { return ix.CommitShare(fps[2], "share-u2-000000000009") }, fps[2])
	wrote(func() error { return ix.ReleaseShareRefs([]metadata.Fingerprint{fps[4]}, 1) }, fps[4])
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	// Record boundaries, from the framing: [crc:4][op:1][klen:4][vlen:4].
	walPath := filepath.Join(dir, "shares", "wal.log")
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	bounds := []int{0}
	for p := 0; p < len(wal); {
		p += 13 + int(binary.BigEndian.Uint32(wal[p+5:])) + int(binary.BigEndian.Uint32(wal[p+9:]))
		bounds = append(bounds, p)
	}
	if len(bounds) != len(model) {
		t.Fatalf("the WAL holds %d records, the calls changed %d entries", len(bounds)-1, len(model)-1)
	}
	reopenAt := func(cut int) map[metadata.Fingerprint]*ShareEntry {
		t.Helper()
		if err := os.WriteFile(walPath, wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		ix, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen with the WAL cut at %d: %v", cut, err)
		}
		defer ix.Close()
		return shareState(t, ix)
	}
	for r, at := range bounds {
		if got := reopenAt(at); !reflect.DeepEqual(got, model[r]) {
			t.Fatalf("WAL cut after record %d: index holds %v, model %v", r, got, model[r])
		}
		if r+1 < len(bounds) {
			if got := reopenAt((at + bounds[r+1]) / 2); !reflect.DeepEqual(got, model[r]) {
				t.Fatalf("WAL cut inside record %d: index holds %v, model %v", r+1, got, model[r])
			}
		}
	}
}

// TestScanDoesNotStallPuts: 16 sessions, each working its own stripe,
// commit, reference and release shares while another goroutine walks the
// whole index again and again and a third flushes it. Each walk stops
// partway and waits until the writers have completed more puts: with
// the store lock held across a scan (as lsmkv did before it streamed)
// those puts could not complete and the walk would wait out its
// deadline. Counted, not timed — the deadline only bounds a failure.
// Under -race this is also the proof that stripes sharing one store
// share nothing else.
func TestScanDoesNotStallPuts(t *testing.T) {
	ix := openTestIndex(t)
	const (
		writers   = 16
		perWriter = 100
		preloaded = 2500 // more than two ranges of a scan, half of it in a table
	)
	for i := 0; i < preloaded; i++ {
		commitShare(t, ix, fp(fmt.Sprintf("preloaded-%d", i)), 999, "share-u999-000000000000")
		if i == preloaded/2 {
			if err := ix.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}

	var mine [writers][perWriter]metadata.Fingerprint
	for w := range mine {
		for i := range mine[w] {
			mine[w][i] = fpInStripe(w*4, i)
		}
	}

	var puts atomic.Int64
	var writing sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			user := uint64(w + 1)
			for i := 0; i < perWriter; i++ {
				f := mine[w][i]
				st, err := ix.TryReserveShare(f, user, 128)
				if err != nil || st != StatusReserved {
					errs <- fmt.Errorf("writer %d reserve %d: %v, %v", w, i, st, err)
					return
				}
				fs := []metadata.Fingerprint{f}
				if err := ix.CommitShares(fs, []string{"share-u1-000000000001"}); err != nil {
					errs <- err
					return
				}
				if err := ix.AddShareRefs([]metadata.Fingerprint{f, f}, user); err != nil {
					errs <- err
					return
				}
				if err := ix.ReleaseShareRefs(fs, user); err != nil {
					errs <- err
					return
				}
				puts.Add(1)
			}
		}(w)
	}
	go func() { // the checkpointing server
		for {
			select {
			case <-done:
				errs <- nil
				return
			case <-time.After(time.Millisecond):
				if err := ix.Flush(); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	walks, overlapped := 0, 0
	go func() { // the scrubber
		defer close(done)
		for writersBusy := true; writersBusy; walks++ {
			start, seen := puts.Load(), 0
			err := ix.ScanShares(func(*ShareEntry) error {
				if seen++; seen != preloaded/3 {
					return nil
				}
				for deadline := time.Now().Add(20 * time.Second); puts.Load() < start+writers; {
					if puts.Load() == writers*perWriter {
						writersBusy = false
						return nil
					}
					if time.Now().After(deadline) {
						return fmt.Errorf("no put completed while a scan was %d entries in", seen)
					}
					time.Sleep(100 * time.Microsecond)
				}
				overlapped++
				return nil
			})
			if err != nil {
				errs <- err
				return
			}
			if seen < preloaded {
				errs <- fmt.Errorf("a walk visited %d entries, %d were there throughout", seen, preloaded)
				return
			}
		}
		errs <- nil
	}()
	writing.Wait()
	<-done
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if overlapped == 0 {
		t.Fatalf("none of %d walks overlapped a put", walks)
	}
	t.Logf("%d walks, %d of them waited for and saw %d more puts complete mid-scan", walks, overlapped, writers)

	state := shareState(t, ix)
	if len(state) != preloaded+writers*perWriter {
		t.Fatalf("index holds %d shares, want %d", len(state), preloaded+writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			e := state[mine[w][i]]
			if e == nil || len(e.Refs) != 1 || e.Refs[uint64(w+1)] != 1 {
				t.Fatalf("writer %d share %d ended as %+v, want one reference", w, i, e)
			}
		}
	}
}
