package server

import (
	"sync"

	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
)

// This file holds the two server-wide hot-path services behind the put/
// get overhaul: the shared fingerprint worker pool (§3.3 re-hashing is
// mandatory; doing it one share at a time in the session goroutine is
// not) and the byte-budget admission limiter that keeps hundreds to
// thousands of concurrent sessions from thrashing the container store.

// hashChunk is the number of shares one pool job hashes. Big enough to
// amortize the handoff (a SHA-256 of a 4KB share is ~µs scale), small
// enough that a 64-share batch still fans across several cores.
const hashChunk = 16

// hashPool is a bounded, server-wide pool of fingerprinting workers.
// One pool serves every session, sized to the machine, so one session's
// 4MB batch can use all cores while 1000 concurrent sessions cannot
// spawn 1000× the hardware's worth of hashing goroutines.
type hashPool struct {
	jobs chan func()
	stop chan struct{}
	wg   sync.WaitGroup
}

func newHashPool(workers int) *hashPool {
	p := &hashPool{
		jobs: make(chan func(), workers*2),
		stop: make(chan struct{}),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for {
				select {
				case job := <-p.jobs:
					job()
				case <-p.stop:
					return
				}
			}
		}()
	}
	return p
}

// do runs job on a pool worker, or INLINE on the caller when every
// worker is busy. The inline fallback is load-shedding and deadlock
// freedom in one: submission never blocks, so sessions can never wedge
// each other through a full job queue, and under saturation each session
// degrades to hashing its own batch.
func (p *hashPool) do(job func()) {
	select {
	case p.jobs <- job:
	default:
		job()
	}
}

func (p *hashPool) close() {
	close(p.stop)
	p.wg.Wait()
}

// fingerprintBatch recomputes every share's fingerprint (never trust the
// client's hash, §3.3), fanning hashChunk-sized slices of the batch
// across the pool. Results land in fps[i] for batch[i]; fps must have
// the batch's length.
func (s *Server) fingerprintBatch(fps []metadata.Fingerprint, batch []protocol.ShareUpload) {
	if len(batch) <= hashChunk {
		for i := range batch {
			fps[i] = metadata.FingerprintOf(batch[i].Data)
		}
		return
	}
	var wg sync.WaitGroup
	for start := 0; start < len(batch); start += hashChunk {
		end := start + hashChunk
		if end > len(batch) {
			end = len(batch)
		}
		start := start
		wg.Add(1)
		s.hashers.do(func() {
			defer wg.Done()
			for i := start; i < end; i++ {
				fps[i] = metadata.FingerprintOf(batch[i].Data)
			}
		})
	}
	wg.Wait()
}

// flowWaiter is one parked acquire in the limiter's FIFO queue.
type flowWaiter struct {
	n     int64
	ready chan struct{}
}

// flowLimiter is the server-wide admission semaphore on in-flight
// put/get payload bytes. Grants are strictly FIFO: a session parks at
// most one acquire at a time (its handler loop is synchronous), so the
// queue interleaves sessions in arrival order — a round-robin byte
// budget at batch granularity. A 4MB uploader cannot starve 4KB
// uploaders behind it, and total buffered payload is bounded regardless
// of session count, which is what keeps 256+ sessions from collapsing
// the container store under admitted-but-unstorable bytes.
type flowLimiter struct {
	mu      sync.Mutex
	cap     int64
	avail   int64
	waiters []*flowWaiter
}

func newFlowLimiter(capacity int64) *flowLimiter {
	return &flowLimiter{cap: capacity, avail: capacity}
}

// acquire blocks until n bytes of budget are granted. Requests larger
// than the whole budget are clamped so a single oversized batch cannot
// deadlock (it just gets the whole budget to itself).
func (f *flowLimiter) acquire(n int64) {
	if n > f.cap {
		n = f.cap
	}
	f.mu.Lock()
	if len(f.waiters) == 0 && f.avail >= n {
		f.avail -= n
		f.mu.Unlock()
		return
	}
	w := &flowWaiter{n: n, ready: make(chan struct{})}
	f.waiters = append(f.waiters, w)
	f.mu.Unlock()
	<-w.ready
}

// inflightBytes reports the payload bytes currently admitted (budget in
// use). The scrub report exposes it so the repair scheduler can gate
// re-dispersal on server idleness.
func (f *flowLimiter) inflightBytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cap - f.avail
}

// release returns n bytes of budget and grants as many FIFO waiters as
// now fit. Only the queue head may be granted out of available budget —
// skipping ahead would let small requests starve a large one forever.
func (f *flowLimiter) release(n int64) {
	if n > f.cap {
		n = f.cap
	}
	f.mu.Lock()
	f.avail += n
	for len(f.waiters) > 0 && f.avail >= f.waiters[0].n {
		w := f.waiters[0]
		f.waiters = f.waiters[1:]
		f.avail -= w.n
		close(w.ready)
	}
	f.mu.Unlock()
}
