package secretshare

import (
	"math/bits"
	"sync"
)

// Arena is the reusable per-worker scratch space CAONT-RS's SplitInto,
// CombineInto and RebuildInto thread through the encode pipeline
// (chunk -> AONT -> RS -> fingerprint), its decode mirror
// (RS reconstruct -> un-AONT -> integrity check) and the one-row rebuild. One worker owns one
// Arena; it is not safe for concurrent use.
//
// An Arena separates two lifetimes:
//
//   - Scratch: temporaries (the AONT package, the keys, the reassembled
//     decode package) that die when SplitInto/CombineInto returns. They
//     are plain fields reused across secrets.
//   - Result buffers: the n share slices SplitInto returns, or the secret
//     CombineInto returns, which outlive the call (shares travel to the
//     per-cloud uploaders; secrets travel to the restore writer). They
//     come from the SharePool, and the consumer recycles them once the
//     bytes are flushed, so steady state allocates nothing.
type Arena struct {
	scratch []byte
	shards  [][]byte
	// headers is the reusable [][]byte ShardViews slices a scratch region
	// through (decode shard views); distinct from shards so a decode never
	// clobbers share headers still traveling to uploaders.
	headers [][]byte
	pool    *SharePool // nil means plain allocation
	// HashKey is scratch for the 32-byte convergent key. Keeping it on
	// the (heap-resident) arena matters: a stack array passed into
	// aes.NewCipher escapes and would cost an allocation per secret.
	HashKey [32]byte
	// KeyOut receives the package key a decode recovers (CombineInto);
	// arena-resident for the same escape reason as HashKey.
	KeyOut [32]byte
}

// NewArena returns an Arena whose share buffers are plainly allocated
// (scratch is still reused). Use NewArenaWithPool to recycle share
// buffers too.
func NewArena() *Arena { return &Arena{} }

// NewArenaWithPool returns an Arena drawing share buffers from pool (a
// nil pool is allowed and behaves like NewArena). Callers return buffers
// to the pool when the share's journey ends.
func NewArenaWithPool(pool *SharePool) *Arena { return &Arena{pool: pool} }

// SharePool is a freelist of share buffers shared between encode workers
// (producers) and uploaders (recyclers). Unlike sync.Pool it stores the
// slice headers directly, so neither Get nor Put allocates — sync.Pool
// boxes every Put into an interface, which alone would blow the
// zero-allocation budget of the encode pipeline. Buffers are kept by
// size class, so a backup whose shares differ in size (any content-defined
// chunking) finds one that fits and discards none. Safe for concurrent use.
type SharePool struct {
	mu   sync.Mutex
	bufs [4 * bits.UintSize][][]byte // idle buffers by sizeClass of their capacity
	idle int
}

// poolMaxIdle bounds retained buffers; beyond it, Put drops the buffer
// for the GC. 4096 buffers of a typical ~3KB share is ~12MB, an
// acceptable ceiling for a backup client.
const poolMaxIdle = 4096

// sizeClass returns the smallest pooled capacity that holds n >= 1 bytes
// and its class. Capacities keep three significant bits — 5, 6, 7 and 8
// times a power of two — so rounding up wastes under a quarter, and the
// class below c is the next smaller capacity.
func sizeClass(n int) (c, capacity int) {
	shift := max(bits.Len(uint(n-1))-3, 0)
	m := (n - 1) >> shift
	return 4*shift + m, (m + 1) << shift
}

// Get returns a size-byte buffer with undefined contents, allocated at its
// class's capacity when the class is empty.
func (p *SharePool) Get(size int) []byte {
	c, capacity := sizeClass(max(size, 1))
	p.mu.Lock()
	if n := len(p.bufs[c]); n > 0 {
		b := p.bufs[c][n-1]
		p.bufs[c][n-1] = nil
		p.bufs[c] = p.bufs[c][:n-1]
		p.idle--
		p.mu.Unlock()
		return b[:size]
	}
	p.mu.Unlock()
	return make([]byte, size, capacity)
}

// Put returns a buffer to the pool, under the largest class it can serve.
// The buffer must no longer be read or written by the caller.
func (p *SharePool) Put(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	above, _ := sizeClass(cap(buf) + 1)
	p.mu.Lock()
	if p.idle < poolMaxIdle {
		p.bufs[above-1] = append(p.bufs[above-1], buf[:cap(buf)])
		p.idle++
	}
	p.mu.Unlock()
}

// Drop releases every idle buffer to the garbage collector.
func (p *SharePool) Drop() {
	p.mu.Lock()
	p.bufs, p.idle = [len(p.bufs)][][]byte{}, 0
	p.mu.Unlock()
}

// Scratch returns an n-byte scratch slice with undefined contents, valid
// until the next Scratch call. The backing array is reused and grows
// monotonically to the largest request.
func (a *Arena) Scratch(n int) []byte {
	if cap(a.scratch) < n {
		a.scratch = make([]byte, n)
	}
	return a.scratch[:n]
}

// Shards returns n share buffers of size bytes each, with undefined
// contents, drawn from the pool when one is set. The [][]byte header is
// arena-owned and reused by the next Shards call; the buffers themselves
// are caller-owned until returned with SharePool.Put.
func (a *Arena) Shards(n, size int) [][]byte {
	if cap(a.shards) < n {
		a.shards = make([][]byte, n)
	}
	a.shards = a.shards[:n]
	for i := range a.shards {
		a.shards[i] = a.shareBuf(size)
	}
	return a.shards
}

func (a *Arena) shareBuf(size int) []byte {
	if a.pool != nil {
		return a.pool.Get(size)
	}
	return make([]byte, size)
}

// ShardViews slices buf — a package laid out as k contiguous shards —
// into its k equal shard views. The header array is arena-owned and
// reused by the next ShardViews call.
func (a *Arena) ShardViews(buf []byte, k int) [][]byte {
	if cap(a.headers) < k {
		a.headers = make([][]byte, k)
	}
	views := a.headers[:k]
	size := len(buf) / k
	for i := range views {
		views[i] = buf[i*size : (i+1)*size]
	}
	return views
}

// ResultBuf returns one size-byte buffer with undefined contents, drawn
// from the pool when one is set — the buffer a decode returns its secret
// in. The caller owns it until handing it back with Recycle (or directly
// to the SharePool).
func (a *Arena) ResultBuf(size int) []byte { return a.shareBuf(size) }

// Recycle returns a ResultBuf/Shards buffer to the arena's pool; without
// a pool it is a no-op (the GC takes it). Error paths inside CombineInto
// use it so a failed decode never leaks the pool dry.
func (a *Arena) Recycle(buf []byte) {
	if a.pool != nil {
		a.pool.Put(buf)
	}
}
