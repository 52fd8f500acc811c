package server

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
	"cdstore/internal/storage"
)

// raceEnabled reports whether the race detector is compiled in
// (race_test.go sets it). Allocation floors consult it: under race,
// sync.Pool deliberately drops a fraction of Puts, so pooled states get
// reallocated and per-call allocation counts are inflated.
var raceEnabled bool

// TestFingerprintBatchMatchesSerial: the pooled fan-out must produce
// exactly the fingerprints serial hashing would, across batch sizes that
// exercise the inline path, a partial final chunk, and many chunks.
func TestFingerprintBatchMatchesSerial(t *testing.T) {
	srv, err := New(Config{
		CloudIndex: 0, N: 4, K: 3,
		IndexDir: t.TempDir(), Backend: storage.NewMemory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.hashers.close()
	srv.hashers = newHashPool(4)
	for _, n := range []int{0, 1, hashChunk, hashChunk + 1, 3*hashChunk + 5, 256} {
		batch := make([]protocol.ShareUpload, n)
		for i := range batch {
			batch[i].Data = bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 100+i%7)
		}
		fps := make([]metadata.Fingerprint, n)
		srv.fingerprintBatch(fps, batch)
		for i := range batch {
			if want := metadata.FingerprintOf(batch[i].Data); fps[i] != want {
				t.Fatalf("n=%d share %d: pooled fingerprint differs from serial", n, i)
			}
		}
	}
}

// TestFingerprintBatchInlineFallback: when no pool worker takes a job —
// here a pool with no workers and no queue, so every submission falls
// through — hashing must still complete correctly on the caller's
// goroutine.
func TestFingerprintBatchInlineFallback(t *testing.T) {
	srv, err := New(Config{
		CloudIndex: 0, N: 4, K: 3,
		IndexDir: t.TempDir(), Backend: storage.NewMemory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.hashers.close()
	srv.hashers = newHashPool(0)
	batch := make([]protocol.ShareUpload, 100)
	for i := range batch {
		batch[i].Data = []byte(fmt.Sprintf("inline-%d", i))
	}
	fps := make([]metadata.Fingerprint, len(batch))
	srv.fingerprintBatch(fps, batch)
	for i := range batch {
		if fps[i] != metadata.FingerprintOf(batch[i].Data) {
			t.Fatalf("share %d wrong under inline fallback", i)
		}
	}
}

// TestFingerprintBatchSaturatedPoolSingleProc pins the inline fallback
// under the conditions 1-CPU CI runners actually hit: GOMAXPROCS=1 and
// every pool worker busy with a queue already full. do() must shed the
// load onto the caller's goroutine — submission never blocks — so the
// batch completes correctly even though no worker can make progress
// until after the batch is done. A regression that makes do() block on
// a full queue shows up here as a deadlock (and a test timeout), not as
// a rare 1-CPU-runner hang.
func TestFingerprintBatchSaturatedPoolSingleProc(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	srv, err := New(Config{
		CloudIndex: 0, N: 4, K: 3,
		IndexDir: t.TempDir(), Backend: storage.NewMemory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.hashers.close()
	srv.hashers = newHashPool(2)

	// Wedge both workers on a gate, then fill the job queue (capacity
	// workers*2) with no-ops nobody will drain until the gate opens.
	gate := make(chan struct{})
	var wedged sync.WaitGroup
	for i := 0; i < 2; i++ {
		wedged.Add(1)
		srv.hashers.jobs <- func() { wedged.Done(); <-gate }
	}
	// Workers pick jobs off the queue; wait until both are parked so the
	// fills below stay queued rather than being consumed.
	wedged.Wait()
	for i := 0; i < cap(srv.hashers.jobs); i++ {
		srv.hashers.jobs <- func() {}
	}

	batch := make([]protocol.ShareUpload, 3*hashChunk+5)
	for i := range batch {
		batch[i].Data = []byte(fmt.Sprintf("saturated-%d", i))
	}
	fps := make([]metadata.Fingerprint, len(batch))
	done := make(chan struct{})
	go func() {
		srv.fingerprintBatch(fps, batch)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("fingerprintBatch blocked on a saturated pool; inline fallback is broken")
	}
	close(gate)
	for i := range batch {
		if fps[i] != metadata.FingerprintOf(batch[i].Data) {
			t.Fatalf("share %d wrong under saturated-pool inline fallback", i)
		}
	}
}

// TestFlowLimiterFIFO: grants must come strictly in arrival order, so a
// stream of small acquires cannot starve a large one.
func TestFlowLimiterFIFO(t *testing.T) {
	f := newFlowLimiter(100)
	f.acquire(100) // drain the budget

	order := make(chan int, 3)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i, n := range []int64{60, 10, 10} {
		wg.Add(1)
		go func(seq int, n int64) {
			defer wg.Done()
			<-start
			// Stagger arrivals so queue order is deterministic.
			time.Sleep(time.Duration(seq*20) * time.Millisecond)
			f.acquire(n)
			order <- seq
			f.release(n)
		}(i, n)
	}
	close(start)
	time.Sleep(100 * time.Millisecond) // all three parked
	select {
	case got := <-order:
		t.Fatalf("waiter %d granted before any release", got)
	default:
	}
	// Releasing 20 satisfies the 10s by amount — but the 60 is the queue
	// head, so NOTHING may be granted yet.
	f.release(20)
	time.Sleep(50 * time.Millisecond)
	select {
	case got := <-order:
		t.Fatalf("waiter %d skipped the FIFO queue", got)
	default:
	}
	// 40 more completes the head's 60; the two 10s then fit as well.
	f.release(40)
	wg.Wait()
	close(order)
	var got []int
	for seq := range order {
		got = append(got, seq)
	}
	// The essential property: the large head was granted FIRST — the
	// small followers could not jump the queue and starve it. (The two
	// 10s wake together after the head releases, so their relative order
	// is scheduler noise.)
	if len(got) != 3 || got[0] != 0 {
		t.Fatalf("grant order %v, want the queue head (0) granted first", got)
	}
}

// TestFlowLimiterClampsOversized: one batch larger than the whole budget
// must be admitted alone (clamped), not deadlock.
func TestFlowLimiterClampsOversized(t *testing.T) {
	f := newFlowLimiter(10)
	done := make(chan struct{})
	go func() {
		f.acquire(1 << 30)
		f.release(1 << 30)
		f.acquire(5)
		f.release(5)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("oversized acquire deadlocked")
	}
}

// TestFlowControlledSessionsComplete runs many concurrent uploading
// sessions against a budget that only admits a couple of batches at a
// time: everything must still complete (graceful degradation, not
// deadlock or starvation), and every session's data must be stored.
func TestFlowControlledSessionsComplete(t *testing.T) {
	srv, err := New(Config{
		CloudIndex: 0, N: 4, K: 3,
		IndexDir: t.TempDir(), Backend: storage.NewMemory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.flow = newFlowLimiter(8 * 1024) // ~2 batches of the size used below

	const sessions = 12
	var wg sync.WaitGroup
	var stored atomic.Uint64
	errCh := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(user uint64) {
			defer wg.Done()
			a, b := net.Pipe()
			go srv.ServeConn(a)
			pc := protocol.NewConn(b)
			defer pc.Close()
			if err := pc.WriteMsg(protocol.MsgHello, protocol.EncodeHello(user)); err != nil {
				errCh <- err
				return
			}
			if typ, _, err := readMsg(pc); err != nil || typ != protocol.MsgHelloOK {
				errCh <- fmt.Errorf("hello: %d %v", typ, err)
				return
			}
			for round := 0; round < 5; round++ {
				shares := make([]protocol.ShareUpload, 4)
				for i := range shares {
					shares[i].Data = []byte(fmt.Sprintf("flow-user%d-round%d-share%d-%s",
						user, round, i, bytes.Repeat([]byte{'x'}, 900)))
					shares[i].SecretSize = uint32(len(shares[i].Data))
				}
				if err := pc.WriteMsg(protocol.MsgPutShares, protocol.EncodeShareBatch(shares)); err != nil {
					errCh <- err
					return
				}
				typ, reply, err := readMsg(pc)
				if err != nil || typ != protocol.MsgPutOK {
					errCh <- fmt.Errorf("put: %d %s %v", typ, reply, err)
					return
				}
				n, _ := protocol.DecodePutOK(reply)
				stored.Add(uint64(n))
			}
			errCh <- nil
		}(uint64(g + 1))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	want := uint64(sessions * 5 * 4) // all content is distinct
	if got := stored.Load(); got != want {
		t.Fatalf("stored %d shares under flow control, want %d", got, want)
	}
}

// TestPutPathAllocFloor pins the steady-state server put path: a
// duplicate-heavy workload (re-uploading known shares, the dedup common
// case) must run without per-payload copies. Allocated BYTES per share
// are the sharp signal — one lost pooling optimization re-adds at least
// a share-sized copy (4KB here) per share — and a loose allocs-per-share
// cap catches object-count regressions. Counts include the test's own
// client-side encode/read work, so the bounds are ceilings on both.
func TestPutPathAllocFloor(t *testing.T) {
	srv, err := New(Config{
		CloudIndex: 0, N: 4, K: 3,
		IndexDir: t.TempDir(), Backend: storage.NewMemory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	a, b := net.Pipe()
	go srv.ServeConn(a)
	pc := protocol.NewConn(b)
	defer pc.Close()
	if err := pc.WriteMsg(protocol.MsgHello, protocol.EncodeHello(1)); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readMsg(pc); err != nil || typ != protocol.MsgHelloOK {
		t.Fatalf("hello: %d %v", typ, err)
	}

	const (
		sharesPerBatch = 64
		shareSize      = 4096
		rounds         = 30
	)
	shares := make([]protocol.ShareUpload, sharesPerBatch)
	for i := range shares {
		shares[i].Data = bytes.Repeat([]byte{byte(i + 1)}, shareSize)
		shares[i].SecretSize = shareSize
	}
	payload := protocol.EncodeShareBatch(shares)
	put := func() {
		if err := pc.WriteMsg(protocol.MsgPutShares, payload); err != nil {
			t.Fatal(err)
		}
		typ, reply, err := readMsg(pc)
		if err != nil || typ != protocol.MsgPutOK {
			t.Fatalf("put: %d %s %v", typ, reply, err)
		}
	}
	// Warm up: first round stores, next rounds reach steady duplicate
	// state and grow every scratch buffer and pool entry.
	for i := 0; i < 5; i++ {
		put()
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		put()
	}
	runtime.ReadMemStats(&after)

	totalShares := float64(rounds * sharesPerBatch)
	allocsPerShare := float64(after.Mallocs-before.Mallocs) / totalShares
	bytesPerShare := float64(after.TotalAlloc-before.TotalAlloc) / totalShares
	t.Logf("steady-state put path: %.2f allocs/share, %.0f bytes/share", allocsPerShare, bytesPerShare)
	if raceEnabled {
		// Under race, sync.Pool drops Puts on purpose and instrumentation
		// inflates both counters; the path still ran (correctness above),
		// but the quantitative floor only holds in a normal build.
		t.Skip("allocation floor not meaningful under the race detector")
	}
	if bytesPerShare > shareSize/4 {
		t.Fatalf("steady-state put path allocates %.0f bytes/share (share size %d): a payload copy is back",
			bytesPerShare, shareSize)
	}
	// A duplicate share by an existing owner is answered on the encoded
	// index entry in place (measured 0.16/share, all per-batch); one
	// object per share means a per-share decode or copy is back.
	if allocsPerShare > 1 {
		t.Fatalf("steady-state put path allocates %.2f objects/share, want <= 1", allocsPerShare)
	}
}
