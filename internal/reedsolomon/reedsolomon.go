package reedsolomon

import (
	"errors"
	"fmt"
	"sync"

	"cdstore/internal/gf256"
)

// Codec is a systematic (n, k) Reed-Solomon encoder/decoder. It is
// immutable after construction and safe for concurrent use.
type Codec struct {
	n, k       int
	enc        *Matrix  // n x k encoding matrix; top k x k block is identity
	parityRows [][]byte // rows k..n-1 of enc, precomputed so Encode allocates nothing
	field      *gf256.Field

	// invMu guards invCache, the per-k-subset inverse rows
	// ReconstructDataInto caches so steady-state degraded decodes pay the
	// matrix inversion once per subset, not once per secret. Keyed by the
	// subset bitmask, so only geometries with n <= 64 are cached (larger n
	// falls back to inverting per call). At most C(n, k) entries of k
	// k-byte rows each — tiny for real deployments (4 entries at (4,3)).
	invMu    sync.RWMutex
	invCache map[uint64][][]byte

	// decodePool recycles the slice headers ReconstructDataInto needs per
	// call (chosen indices, input/output row views), keeping the decode
	// hot path allocation-free.
	decodePool sync.Pool
}

// Common error values returned by the codec.
var (
	ErrInvalidParams   = errors.New("reedsolomon: require 0 < k < n <= 256")
	ErrTooFewShards    = errors.New("reedsolomon: fewer than k shards available")
	ErrShardSize       = errors.New("reedsolomon: shards have mismatched or zero size")
	ErrInvalidShardNum = errors.New("reedsolomon: shard index out of range")
)

// New constructs a systematic (n, k) codec. The encoding matrix is the
// n x k Vandermonde matrix right-multiplied by the inverse of its own top
// k x k block, which preserves the any-k-rows-invertible property while
// making the first k outputs equal the inputs.
//
// The codec's bulk arithmetic runs whatever kernel gf256 dispatched for
// this CPU — the SIMD split-nibble kernel (AVX2 on amd64, NEON on
// arm64) where available, the scalar row kernel otherwise — through mulRows'
// MulSlice/MulAddSlice calls, on both the encode path (Encode) and the
// degraded-decode path (ReconstructDataInto's cached inverse-row
// multiply).
func New(n, k int) (*Codec, error) {
	return NewWithField(n, k, gf256.Default())
}

// NewWithField constructs the codec over a caller-supplied field. Its
// purpose is benchmarking and differential testing: a codec over
// gf256.NewScalar() is the forced-scalar oracle the codec over New's
// dispatched kernel is cross-checked against.
func NewWithField(n, k int, field *gf256.Field) (*Codec, error) {
	if k <= 0 || n <= k || n > 256 {
		return nil, fmt.Errorf("%w (got n=%d k=%d)", ErrInvalidParams, n, k)
	}
	v := Vandermonde(n, k)
	top := v.SubMatrix(0, k, 0, k)
	topInv, err := top.Invert()
	if err != nil {
		// Unreachable for distinct Vandermonde points, but keep the error
		// path honest.
		return nil, err
	}
	enc := v.Mul(topInv)
	c := &Codec{n: n, k: k, enc: enc, field: field}
	c.parityRows = make([][]byte, n-k)
	for r := range c.parityRows {
		c.parityRows[r] = enc.Row(k + r)
	}
	c.invCache = make(map[uint64][][]byte)
	c.decodePool.New = func() interface{} { return new(decodeScratch) }
	return c, nil
}

// blockSize is the per-shard stride of the blocked matrix multiply: all
// output rows are updated for one block of the inputs before moving on,
// so each input block is read from cache (n-k or k times) rather than
// from memory once per output row on large shards.
const blockSize = 32 << 10

// mulRows computes out[r] = sum_i coeffs[r][i] * in[i] for equal-length
// slices, walking the inputs once in cache-sized blocks. The first
// contribution of each output block is written with MulSlice (overwrite),
// so outputs need no zeroing pass and their prior contents never cost a
// read.
func (c *Codec) mulRows(coeffs [][]byte, in, out [][]byte) {
	size := len(in[0])
	for lo := 0; lo < size; lo += blockSize {
		hi := lo + blockSize
		if hi > size {
			hi = size
		}
		for r := range out {
			row := coeffs[r]
			dst := out[r][lo:hi]
			c.field.MulSlice(row[0], in[0][lo:hi], dst)
			for i := 1; i < len(in); i++ {
				c.field.MulAddSlice(row[i], in[i][lo:hi], dst)
			}
		}
	}
}

// N returns the total number of shards.
func (c *Codec) N() int { return c.n }

// K returns the number of data shards (reconstruction threshold).
func (c *Codec) K() int { return c.k }

// Encode fills the parity shards from the data shards. shards must hold
// exactly n slices of equal nonzero length; the first k are read as data
// and the last n-k are overwritten with parity. Encode allocates nothing.
func (c *Codec) Encode(shards [][]byte) error {
	if len(shards) != c.n {
		return fmt.Errorf("reedsolomon: need %d shards, got %d", c.n, len(shards))
	}
	size := len(shards[0])
	if size == 0 {
		return ErrShardSize
	}
	for _, s := range shards {
		if len(s) != size {
			return ErrShardSize
		}
	}
	c.mulRows(c.parityRows, shards[:c.k], shards[c.k:])
	return nil
}

// EncodeRowInto computes shard `row` (0 <= row < n) of the codeword whose
// k data shards are data, into out: a copy of data[row] for a data row,
// one parity row — not all n-k of them — otherwise. It is what rebuilding
// a single lost shard from a decoded stripe costs. All slices must share
// one nonzero length; out must not alias a data shard. Allocates nothing.
func (c *Codec) EncodeRowInto(data [][]byte, row int, out []byte) error {
	if row < 0 || row >= c.n {
		return fmt.Errorf("%w: %d", ErrInvalidShardNum, row)
	}
	if len(data) != c.k {
		return fmt.Errorf("reedsolomon: EncodeRowInto requires %d data shards, got %d", c.k, len(data))
	}
	size := len(out)
	if size == 0 {
		return ErrShardSize
	}
	for _, s := range data {
		if len(s) != size {
			return ErrShardSize
		}
	}
	if row < c.k {
		copy(out, data[row])
		return nil
	}
	coeffs := [1][]byte{c.parityRows[row-c.k]}
	outs := [1][]byte{out}
	c.mulRows(coeffs[:], data, outs[:])
	return nil
}

// ShardSize returns the per-shard size Split produces for a dataLen-byte
// input: ceil(dataLen/k), minimum 1.
func (c *Codec) ShardSize(dataLen int) int {
	shardSize := (dataLen + c.k - 1) / c.k
	if shardSize == 0 {
		shardSize = 1
	}
	return shardSize
}

// Split divides data into k equal-size data shards, zero-padding the tail,
// and returns n shard buffers (parity shards allocated but not encoded).
// The returned shard size is ceil(len(data)/k).
func (c *Codec) Split(data []byte) [][]byte {
	shardSize := c.ShardSize(len(data))
	shards := make([][]byte, c.n)
	for i := range shards {
		shards[i] = make([]byte, shardSize)
	}
	if err := c.SplitInto(data, shards); err != nil {
		// Unreachable: the buffers above satisfy SplitInto's contract.
		panic(err)
	}
	return shards
}

// SplitInto copies data into the first k of the caller's n shard buffers
// (zero-padding the k-th), leaving the n-k parity buffers untouched for a
// subsequent Encode. Every buffer must be exactly
// ShardSize(len(data)) long.
func (c *Codec) SplitInto(data []byte, shards [][]byte) error {
	if len(shards) != c.n {
		return fmt.Errorf("reedsolomon: SplitInto requires %d shard buffers, got %d", c.n, len(shards))
	}
	shardSize := c.ShardSize(len(data))
	for i, s := range shards {
		if len(s) != shardSize {
			return fmt.Errorf("reedsolomon: SplitInto shard %d has %d bytes, want %d", i, len(s), shardSize)
		}
	}
	for i := 0; i < c.k; i++ {
		lo := i * shardSize
		if lo >= len(data) {
			for j := range shards[i] {
				shards[i][j] = 0
			}
			continue
		}
		hi := lo + shardSize
		if hi > len(data) {
			hi = len(data)
		}
		n := copy(shards[i], data[lo:hi])
		for j := n; j < shardSize; j++ {
			shards[i][j] = 0
		}
	}
	return nil
}

// decodeScratch holds the per-call slice headers ReconstructDataInto
// reuses across calls through the codec's pool.
type decodeScratch struct {
	idxs []int
	in   [][]byte
	rows [][]byte
	outs [][]byte
}

func (ds *decodeScratch) ints(n int) []int {
	if cap(ds.idxs) < n {
		ds.idxs = make([]int, 0, n)
	}
	return ds.idxs[:0]
}

// release drops the buffer references a decode left in the scratch —
// truncating alone would keep them reachable through the backing arrays
// for as long as the pooled scratch lives — and returns it to the pool.
func (c *Codec) release(ds *decodeScratch) {
	for _, s := range [][][]byte{ds.in, ds.rows, ds.outs} {
		s = s[:cap(s)]
		for i := range s {
			s[i] = nil
		}
	}
	ds.in, ds.rows, ds.outs = ds.in[:0], ds.rows[:0], ds.outs[:0]
	c.decodePool.Put(ds)
}

// inverseRows returns the k rows of the inverse of the encoding sub-matrix
// picked by idxs (ascending, length k): row j reconstructs data shard j
// from the chosen shards. Results are cached per subset when n <= 64.
func (c *Codec) inverseRows(idxs []int) ([][]byte, error) {
	var key uint64
	cacheable := c.n <= 64
	if cacheable {
		for _, i := range idxs {
			key |= 1 << uint(i)
		}
		c.invMu.RLock()
		rows, ok := c.invCache[key]
		c.invMu.RUnlock()
		if ok {
			return rows, nil
		}
	}
	sub := c.enc.PickRows(idxs)
	inv, err := sub.Invert()
	if err != nil {
		return nil, err
	}
	rows := make([][]byte, c.k)
	for r := range rows {
		rows[r] = inv.Row(r)
	}
	if cacheable {
		c.invMu.Lock()
		c.invCache[key] = rows
		c.invMu.Unlock()
	}
	return rows, nil
}

// ReconstructDataInto recovers the k data shards from any k available
// shards into out (k buffers of the common shard size), which must not
// overlap any shard in have. have maps shard index -> shard content; the
// k entries with the lowest indices are used. Because every data shard
// present is copied and only the missing ones are computed (with inverse
// rows cached per subset, blocked through the bulk kernels), steady-state
// decode allocates nothing — the decode mirror of Encode.
func (c *Codec) ReconstructDataInto(have map[int][]byte, out [][]byte) error {
	if len(out) != c.k {
		return fmt.Errorf("reedsolomon: ReconstructDataInto requires %d output buffers, got %d", c.k, len(out))
	}
	ds := c.decodePool.Get().(*decodeScratch)
	defer c.release(ds)
	idxs := ds.ints(len(have))
	for i := range have {
		if i < 0 || i >= c.n {
			ds.idxs = idxs
			return fmt.Errorf("%w: %d", ErrInvalidShardNum, i)
		}
		idxs = append(idxs, i)
	}
	ds.idxs = idxs
	if len(idxs) < c.k {
		return ErrTooFewShards
	}
	sortInts(idxs)
	idxs = idxs[:c.k]

	size := -1
	for _, i := range idxs {
		if size == -1 {
			size = len(have[i])
		}
		if len(have[i]) != size || size == 0 {
			return ErrShardSize
		}
	}
	for _, o := range out {
		if len(o) != size {
			return ErrShardSize
		}
	}

	// Copy every data shard that is present (the chosen indices are the k
	// lowest, so any present data shard is always chosen) and collect the
	// inverse rows for the missing ones. The all-data fast path reduces to
	// k copies with no matrix work at all.
	in := ds.in[:0]
	mrows := ds.rows[:0]
	mouts := ds.outs[:0]
	missing := false
	for j := 0; j < c.k; j++ {
		if s, ok := have[j]; ok {
			copy(out[j], s)
		} else {
			missing = true
		}
	}
	if missing {
		rows, err := c.inverseRows(idxs)
		if err != nil {
			return err
		}
		for _, i := range idxs {
			in = append(in, have[i])
		}
		for j := 0; j < c.k; j++ {
			if _, ok := have[j]; ok {
				continue
			}
			mrows = append(mrows, rows[j])
			mouts = append(mouts, out[j])
		}
		c.mulRows(mrows, in, mouts)
	}
	ds.in, ds.rows, ds.outs = in, mrows, mouts
	return nil
}

// sortInts sorts a small int slice in place (insertion sort; shard counts
// are tiny, so this avoids pulling in package sort for the hot path).
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}
