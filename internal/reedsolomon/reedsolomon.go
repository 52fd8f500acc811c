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

	// invMu guards invCache, the per-k-subset coefficient rows (subsetRows)
	// ReconstructDataInto and RebuildRowInto cache so steady-state degraded
	// decodes and rebuilds pay the matrix inversion once per subset, not
	// once per secret. Keyed by the subset bitmask, so only geometries with
	// n <= 64 are cached (larger n falls back to inverting per call). At
	// most C(n, k) entries of n k-byte rows each — tiny for real
	// deployments (4 entries at (4,3)).
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
// MulSlice/MulAddSlice calls, on the encode path (Encode), the
// degraded-decode path (ReconstructDataInto) and the one-row rebuild
// (RebuildRowInto), the last two over subsetRows' cached rows.
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

// subsetRows returns, for the k shards picked by idxs (ascending), the n
// rows of coefficients that compute each shard of the codeword from them:
// the encoding matrix times the inverse of the subset's sub-matrix, so
// row j < k reconstructs data shard j. Results are cached per subset when
// n <= 64.
func (c *Codec) subsetRows(idxs []int) ([][]byte, error) {
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
	inv, err := c.enc.PickRows(idxs).Invert()
	if err != nil {
		return nil, err
	}
	coeffs := c.enc.Mul(inv)
	rows := make([][]byte, c.n)
	for r := range rows {
		rows[r] = coeffs.Row(r)
	}
	if cacheable {
		c.invMu.Lock()
		c.invCache[key] = rows
		c.invMu.Unlock()
	}
	return rows, nil
}

// choose validates have and returns the k lowest shard indices in it,
// in the scratch's index buffer, and their common nonzero size.
func (c *Codec) choose(ds *decodeScratch, have map[int][]byte) ([]int, int, error) {
	idxs := ds.ints(len(have))
	for i := range have {
		if i < 0 || i >= c.n {
			ds.idxs = idxs
			return nil, 0, fmt.Errorf("%w: %d", ErrInvalidShardNum, i)
		}
		idxs = append(idxs, i)
	}
	ds.idxs = idxs
	if len(idxs) < c.k {
		return nil, 0, ErrTooFewShards
	}
	sortInts(idxs)
	idxs = idxs[:c.k]
	size := len(have[idxs[0]])
	for _, i := range idxs {
		if len(have[i]) != size || size == 0 {
			return nil, 0, ErrShardSize
		}
	}
	return idxs, size, nil
}

// ReconstructDataInto recovers the k data shards from any k available
// shards into out (k buffers of the common shard size), which must not
// overlap any shard in have. have maps shard index -> shard content; the
// k entries with the lowest indices are used. Because every data shard
// present is copied and only the missing ones are computed (with inverse
// rows cached per subset, blocked through the bulk kernels), steady-state
// decode allocates nothing — the decode mirror of Encode.
func (c *Codec) ReconstructDataInto(have map[int][]byte, out [][]byte) error {
	return c.reconstruct(have, out, true)
}

// DataShardsInto is ReconstructDataInto without the copies: out holds k
// scratch buffers of the shard size, and on return out[j] is have[j]
// itself for each data shard present — nothing is copied or written —
// and still its scratch buffer, now holding the computed shard, for each
// one missing. A decode that reads the data shards where they lie (the
// CAONT-RS unpack) touches scratch only for the missing ones.
func (c *Codec) DataShardsInto(have map[int][]byte, out [][]byte) error {
	return c.reconstruct(have, out, false)
}

// reconstruct is ReconstructDataInto, copying the present data shards
// into out, or DataShardsInto, pointing out at them.
func (c *Codec) reconstruct(have map[int][]byte, out [][]byte, copyPresent bool) error {
	if len(out) != c.k {
		return fmt.Errorf("reedsolomon: ReconstructDataInto requires %d output buffers, got %d", c.k, len(out))
	}
	ds := c.decodePool.Get().(*decodeScratch)
	defer c.release(ds)
	idxs, size, err := c.choose(ds, have)
	if err != nil {
		return err
	}
	for _, o := range out {
		if len(o) != size {
			return ErrShardSize
		}
	}

	// Copy every data shard that is present, or point out at it (the
	// chosen indices are the k lowest, so any present data shard is always
	// chosen), and collect the inverse rows for the missing ones. The
	// all-data fast path reduces to k copies, or none, with no matrix work
	// at all.
	in := ds.in[:0]
	mrows := ds.rows[:0]
	mouts := ds.outs[:0]
	missing := false
	for j := 0; j < c.k; j++ {
		if s, ok := have[j]; !ok {
			missing = true
		} else if copyPresent {
			copy(out[j], s)
		} else {
			out[j] = s
		}
	}
	if missing {
		rows, err := c.subsetRows(idxs)
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

// RebuildRowInto computes shard row (0 <= row < n) of the codeword the
// shards in have belong to, into out: one row of coefficients
// (subsetRows) over the k shards with the lowest indices. It is what
// rebuilding one lost shard costs: no data shard is reconstructed on the
// way. out must be the shards' size and must not alias one of them.
// Steady state allocates nothing.
func (c *Codec) RebuildRowInto(have map[int][]byte, row int, out []byte) error {
	if row < 0 || row >= c.n {
		return fmt.Errorf("%w: %d", ErrInvalidShardNum, row)
	}
	ds := c.decodePool.Get().(*decodeScratch)
	defer c.release(ds)
	idxs, size, err := c.choose(ds, have)
	if err != nil {
		return err
	}
	if len(out) != size {
		return ErrShardSize
	}
	rows, err := c.subsetRows(idxs)
	if err != nil {
		return err
	}
	in := ds.in[:0]
	for _, i := range idxs {
		in = append(in, have[i])
	}
	ds.in = in
	coeffs, outs := [1][]byte{rows[row]}, [1][]byte{out}
	c.mulRows(coeffs[:], in, outs[:])
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
