package secretshare

import (
	"fmt"
	"math/bits"
	"sync"

	"cdstore/internal/aont"
	"cdstore/internal/reedsolomon"
)

// Arena is the reusable per-worker scratch space the allocation-free
// Split and Combine variants thread through the encode pipeline
// (chunk -> AONT -> RS -> fingerprint) and its decode mirror
// (RS reconstruct -> un-AONT -> integrity check). One worker owns one
// Arena; it is not safe for concurrent use.
//
// An Arena separates two lifetimes:
//
//   - Scratch: temporaries (the AONT package, cipher blocks, the
//     reassembled decode package) that die when SplitInto/CombineInto
//     returns. They are plain fields reused across secrets.
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
	// AESScratch is the cipher scratch the aont package variants use.
	AESScratch aont.Scratch
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

// ArenaScheme is a scheme the CDStore client can run: its Split and
// Combine run through a caller-owned Arena, reusing scratch and result
// buffers across secrets, and a lost share can be rebuilt from k others.
// The Reed-Solomon-based schemes (AONT-RS, CAONT-RS, CAONT-RS-Rivest)
// implement it: their shares are the rows of a systematic RS code over
// one all-or-nothing package, so a lost share is rebuilt "as in
// Reed-Solomon codes" (§3.1) without re-dispersing the secret — once a
// decode has passed the scheme's integrity checks, the reconstructed
// package is bit for bit the package Split built (Split's key is a
// function of the verified plaintext for the convergent schemes, and is
// recovered from the package itself for randomised AONT-RS), so share idx
// is data shard idx of it, or one parity row over it.
type ArenaScheme interface {
	Scheme
	// SplitInto is Split drawing every buffer from the arena. The
	// returned shares alias pool-owned memory; the caller returns each
	// one to the arena's SharePool with Put when done. A nil arena
	// allocates plainly.
	SplitInto(secret []byte, a *Arena) ([][]byte, error)
	// CombineInto is Combine drawing its scratch from the arena and the
	// returned secret from the arena's SharePool; the caller recycles the
	// secret buffer when the bytes have been consumed. A nil arena
	// allocates plainly.
	CombineInto(shares map[int][]byte, secretSize int, a *Arena) ([]byte, error)
	// RebuildInto runs exactly the decode and verification of CombineInto
	// over shares and, only on success, returns share idx of the verified
	// package in a buffer from the arena's SharePool (the caller recycles
	// it). The decoded secret never leaves the arena's scratch. Any
	// failed check returns the same error CombineInto would and no
	// buffer. A nil arena allocates plainly.
	RebuildInto(shares map[int][]byte, secretSize, idx int, a *Arena) ([]byte, error)
}

// RebuildShare returns share idx of pkg, a verified package laid out as
// the codec's k contiguous data shards: a copy of data shard idx, or
// parity row idx-k over them (one row, not all n-k), in a buffer from the
// arena's pool. It is the tail of every ArenaScheme.RebuildInto.
func RebuildShare(codec *reedsolomon.Codec, pkg []byte, idx int, a *Arena) ([]byte, error) {
	k := codec.K()
	if idx < 0 || idx >= codec.N() {
		return nil, fmt.Errorf("%w: %d", ErrBadIndex, idx)
	}
	if len(pkg) == 0 || len(pkg)%k != 0 {
		return nil, fmt.Errorf("%w: package of %d bytes is not %d shards", ErrShareSize, len(pkg), k)
	}
	share := a.ResultBuf(len(pkg) / k)
	if err := codec.EncodeRowInto(a.ShardViews(pkg, k), idx, share); err != nil {
		a.Recycle(share)
		return nil, err
	}
	return share, nil
}
