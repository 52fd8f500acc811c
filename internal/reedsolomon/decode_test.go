package reedsolomon

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"cdstore/internal/gf256"
)

// raceEnabled reports whether the race detector is compiled in
// (race_test.go sets it). Allocation floors consult it: under race,
// sync.Pool deliberately drops a fraction of Puts, so pooled states get
// reallocated and per-call allocation counts are inflated.
var raceEnabled bool

// TestReconstructDataIntoMatchesReconstructData pins the decode to its
// definition over every k-subset of shards, across geometries and sizes,
// with dirty reused output buffers: data shard j is row j of the inverse
// of the encoding sub-matrix of the k lowest-indexed shards held, times
// those shards — computed here byte by byte from Matrix.Invert, sharing
// neither the cached inverse rows nor the bulk kernels with the codec.
func TestReconstructDataIntoMatchesReconstructData(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, geom := range []struct{ n, k int }{{4, 3}, {4, 2}, {6, 4}, {9, 6}} {
		c, err := New(geom.n, geom.k)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{1, 32, 1000, 4096} {
			shards := make([][]byte, geom.n)
			for i := range shards {
				shards[i] = make([]byte, size)
				if i < geom.k {
					rng.Read(shards[i])
				}
			}
			if err := c.Encode(shards); err != nil {
				t.Fatal(err)
			}
			out := make([][]byte, geom.k)
			for i := range out {
				out[i] = make([]byte, size)
			}
			// Every k-subset, enumerated via bitmask.
			for mask := 0; mask < 1<<geom.n; mask++ {
				if popcount(mask) != geom.k {
					continue
				}
				have := map[int][]byte{}
				for i := 0; i < geom.n; i++ {
					if mask&(1<<i) != 0 {
						have[i] = shards[i]
					}
				}
				want := reconstructByInversion(t, c, have, size)
				for i := range out {
					rng.Read(out[i]) // dirty
				}
				if err := c.ReconstructDataInto(have, out); err != nil {
					t.Fatalf("(%d,%d) size=%d mask=%b: %v", geom.n, geom.k, size, mask, err)
				}
				for i := range out {
					if !bytes.Equal(out[i], want[i]) {
						t.Fatalf("(%d,%d) size=%d mask=%b: data shard %d diverged", geom.n, geom.k, size, mask, i)
					}
				}
			}
		}
	}
}

// reconstructByInversion is the reference decode: invert the rows of the
// encoding matrix the k lowest-indexed shards of have correspond to and
// multiply, one scalar field operation per byte.
func reconstructByInversion(t *testing.T, c *Codec, have map[int][]byte, size int) [][]byte {
	t.Helper()
	var idxs []int
	for i := 0; i < c.n && len(idxs) < c.k; i++ {
		if _, ok := have[i]; ok {
			idxs = append(idxs, i)
		}
	}
	inv, err := c.enc.PickRows(idxs).Invert()
	if err != nil {
		t.Fatal(err)
	}
	field := gf256.NewScalar()
	data := make([][]byte, c.k)
	for j := range data {
		data[j] = make([]byte, size)
		for b := 0; b < size; b++ {
			for r, i := range idxs {
				data[j][b] ^= field.Mul(inv.At(j, r), have[i][b])
			}
		}
	}
	return data
}

func popcount(x int) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// TestReconstructDataIntoValidation covers the error paths.
func TestReconstructDataIntoValidation(t *testing.T) {
	c, err := New(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	out3 := [][]byte{make([]byte, 4), make([]byte, 4), make([]byte, 4)}
	if err := c.ReconstructDataInto(map[int][]byte{0: make([]byte, 4)}, out3); err != ErrTooFewShards {
		t.Errorf("too few shards: got %v", err)
	}
	if err := c.ReconstructDataInto(map[int][]byte{0: {1}, 1: {2}, 9: {3}}, out3); err == nil {
		t.Error("out-of-range index accepted")
	}
	bad := map[int][]byte{0: make([]byte, 4), 1: make([]byte, 5), 2: make([]byte, 4)}
	if err := c.ReconstructDataInto(bad, out3); err != ErrShardSize {
		t.Errorf("mismatched shard sizes: got %v", err)
	}
	ok := map[int][]byte{0: make([]byte, 4), 1: make([]byte, 4), 2: make([]byte, 4)}
	if err := c.ReconstructDataInto(ok, out3[:2]); err == nil {
		t.Error("wrong output count accepted")
	}
	short := [][]byte{make([]byte, 4), make([]byte, 3), make([]byte, 4)}
	if err := c.ReconstructDataInto(ok, short); err != ErrShardSize {
		t.Errorf("short output buffer: got %v", err)
	}
}

// TestReconstructDataIntoAllocations asserts the decode hot path is
// allocation-free in steady state: both the all-data fast path and a
// degraded subset (whose inverse rows are cached after the first call).
func TestReconstructDataIntoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts skipped under the race detector (sync.Pool drops Puts)")
	}
	c, err := New(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	const size = 4096
	shards := make([][]byte, 4)
	rng := rand.New(rand.NewSource(52))
	for i := range shards {
		shards[i] = make([]byte, size)
		if i < 3 {
			rng.Read(shards[i])
		}
	}
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	out := [][]byte{make([]byte, size), make([]byte, size), make([]byte, size)}
	for name, have := range map[string]map[int][]byte{
		"fast-path": {0: shards[0], 1: shards[1], 2: shards[2]},
		"degraded":  {0: shards[0], 2: shards[2], 3: shards[3]},
	} {
		// Warm up: builds the subset's inverse-row cache.
		if err := c.ReconstructDataInto(have, out); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := c.ReconstructDataInto(have, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%s: ReconstructDataInto allocates %.1f objects per call, want 0", name, allocs)
		}
	}
}

// TestEncodeRowIntoMatchesEncode pins the one-row encode to Encode: every
// row of the codeword, data and parity, across geometries and sizes, into
// a dirty output buffer — and asserts it allocates nothing.
func TestEncodeRowIntoMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, geom := range []struct{ n, k int }{{4, 3}, {4, 2}, {5, 3}, {9, 6}} {
		c, err := New(geom.n, geom.k)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{1, 31, 4096, blockSize + 17} {
			shards := make([][]byte, geom.n)
			for i := range shards {
				shards[i] = make([]byte, size)
				if i < geom.k {
					rng.Read(shards[i])
				}
			}
			if err := c.Encode(shards); err != nil {
				t.Fatal(err)
			}
			out := make([]byte, size)
			for row := 0; row < geom.n; row++ {
				rng.Read(out) // dirty
				if err := c.EncodeRowInto(shards[:geom.k], row, out); err != nil {
					t.Fatalf("(%d,%d) size=%d row=%d: %v", geom.n, geom.k, size, row, err)
				}
				if !bytes.Equal(out, shards[row]) {
					t.Fatalf("(%d,%d) size=%d: row %d diverged from Encode", geom.n, geom.k, size, row)
				}
			}
			if raceEnabled {
				continue
			}
			if allocs := testing.AllocsPerRun(50, func() {
				_ = c.EncodeRowInto(shards[:geom.k], geom.n-1, out)
			}); allocs > 0 {
				t.Errorf("(%d,%d) size=%d: EncodeRowInto allocates %.1f objects per call, want 0", geom.n, geom.k, size, allocs)
			}
		}
	}
}

// TestEncodeRowIntoValidation covers the error paths.
func TestEncodeRowIntoValidation(t *testing.T) {
	c, err := New(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	data := [][]byte{make([]byte, 4), make([]byte, 4), make([]byte, 4)}
	out := make([]byte, 4)
	for _, row := range []int{-1, 4} {
		if err := c.EncodeRowInto(data, row, out); !errors.Is(err, ErrInvalidShardNum) {
			t.Errorf("row %d: got %v, want ErrInvalidShardNum", row, err)
		}
	}
	if err := c.EncodeRowInto(data[:2], 3, out); err == nil {
		t.Error("2 data shards accepted")
	}
	if err := c.EncodeRowInto(data, 3, nil); !errors.Is(err, ErrShardSize) {
		t.Errorf("empty out: got %v, want ErrShardSize", err)
	}
	if err := c.EncodeRowInto(data, 3, make([]byte, 5)); !errors.Is(err, ErrShardSize) {
		t.Errorf("mismatched out: got %v, want ErrShardSize", err)
	}
}
