package client

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestReorderRingResequences drives the ring under the engine's
// contract — positions dispatched in ascending order through a bounded
// jobs channel, workers completing them in whatever order scheduling
// yields — and checks the consumer sees strict sequence order,
// including ring wrap-around (count far exceeds capacity). The tiny
// capacity relative to the window forces producers onto the
// ahead-of-lap wait path constantly.
func TestReorderRingResequences(t *testing.T) {
	const count, capacity, producers, window = 4096, 16, 8, 64
	ring := newReorderRing(capacity)
	jobs := make(chan uint64, window)
	go func() {
		defer close(jobs)
		for p := uint64(0); p < count; p++ {
			jobs <- p
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pos := range jobs {
				if pos%3 == 0 {
					runtime.Gosched() // jitter completion order
				}
				if !ring.put(decodedSecret{seq: pos, secretSize: int(pos * 2)}) {
					t.Error("put failed without abort")
					return
				}
			}
		}()
	}
	for next := uint64(0); next < count; next++ {
		d, ok := ring.take(next)
		if !ok {
			t.Fatalf("take(%d) failed without abort", next)
		}
		if d.seq != next || d.secretSize != int(next*2) {
			t.Fatalf("take(%d) returned seq %d size %d", next, d.seq, d.secretSize)
		}
	}
	wg.Wait()
}

// TestReorderRingAheadOfLapPut pins the hazard the base check exists
// for: a producer a full lap ahead must NOT land in an empty slot the
// consumer still expects an earlier position from — it waits for the
// consumer's lap instead.
func TestReorderRingAheadOfLapPut(t *testing.T) {
	ring := newReorderRing(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ring.put(decodedSecret{seq: 2, secretSize: 200}) // slot 0, one lap early
	}()
	select {
	case <-done:
		t.Fatal("ahead-of-lap put completed before the consumer's lap")
	case <-time.After(20 * time.Millisecond):
	}
	if !ring.put(decodedSecret{seq: 0, secretSize: 0}) {
		t.Fatal("in-lap put failed")
	}
	if d, ok := ring.take(0); !ok || d.secretSize != 0 {
		t.Fatalf("take(0): ok=%v size=%d, want the position-0 result", ok, d.secretSize)
	}
	<-done // take(0) advanced the lap; the parked put lands now
	if d, ok := ring.take(2); !ok || d.secretSize != 200 {
		t.Fatalf("take(2): ok=%v size=%d", ok, d.secretSize)
	}
}

// TestReorderRingAbort checks abort unblocks a producer parked on an
// occupied slot and a consumer parked on an empty one, and fails
// subsequent put/take fast.
func TestReorderRingAbort(t *testing.T) {
	ring := newReorderRing(2)
	if !ring.put(decodedSecret{seq: 0}) {
		t.Fatal("put into empty ring failed")
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if ring.put(decodedSecret{seq: 2}) { // slot 0 occupied by position 0
			t.Error("lapping put succeeded past an occupied slot")
		}
	}()
	go func() {
		defer wg.Done()
		if _, ok := ring.take(1); ok { // nothing at pos 1
			t.Error("take of empty slot succeeded")
		}
	}()
	ring.abort()
	wg.Wait()
	if ring.put(decodedSecret{seq: 5}) {
		t.Fatal("put after abort succeeded")
	}
	// A slot filled before the abort may still be drained.
	if d, ok := ring.take(0); !ok || d.seq != 0 {
		t.Fatalf("take of pre-abort slot: ok=%v seq=%d", ok, d.seq)
	}
}

// The two reorder benchmarks compare the writer-side resequencing
// structures under the restore engine's real shape: P producers
// completing positions slightly out of order, one consumer draining in
// sequence. BenchmarkReorderChanMap is the pre-ring baseline (shared
// results channel + pending map) kept here for the comparison; the
// engine itself uses the ring.
func benchPositions(n int) []uint64 {
	// Near-sorted completion order: each position jittered by less than
	// a window, like decode workers finishing a window front-to-back.
	rng := rand.New(rand.NewSource(2))
	pos := make([]uint64, n)
	for i := range pos {
		pos[i] = uint64(i)
	}
	for i := 0; i < n-1; i++ {
		j := i + rng.Intn(8)
		if j >= n {
			j = n - 1
		}
		pos[i], pos[j] = pos[j], pos[i]
	}
	return pos
}

func BenchmarkReorderRing(b *testing.B) {
	const producers, window = 8, 512
	pos := benchPositions(b.N)
	b.ResetTimer()
	ring := newReorderRing(window + producers + 1)
	jobs := make(chan uint64, window)
	go func() {
		for _, p := range pos {
			jobs <- p
		}
		close(jobs)
	}()
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range jobs {
				ring.put(decodedSecret{seq: p})
			}
		}()
	}
	for next := uint64(0); next < uint64(b.N); next++ {
		if _, ok := ring.take(next); !ok {
			b.Fatal("take failed")
		}
	}
	wg.Wait()
}

func BenchmarkReorderChanMap(b *testing.B) {
	const producers, window = 8, 512
	pos := benchPositions(b.N)
	b.ResetTimer()
	results := make(chan decodedSecret, window)
	jobs := make(chan uint64, window)
	go func() {
		for _, p := range pos {
			jobs <- p
		}
		close(jobs)
	}()
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range jobs {
				results <- decodedSecret{seq: p}
			}
		}()
	}
	pending := make(map[uint64]decodedSecret, window)
	for next := uint64(0); next < uint64(b.N); {
		d := <-results
		pending[d.seq] = d
		for {
			dn, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			_ = dn
			next++
		}
	}
	wg.Wait()
}
