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

// TestDataShardsIntoReadsPresentShardsInPlace: over every k-subset,
// DataShardsInto yields the data shards ReconstructDataInto copies out,
// pointing at each present data shard itself and writing only the
// scratch of the missing ones; and it refuses what ReconstructDataInto
// refuses, with the same errors.
func TestDataShardsIntoReadsPresentShardsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, geom := range []struct{ n, k int }{{4, 3}, {5, 2}, {9, 6}} {
		c, err := New(geom.n, geom.k)
		if err != nil {
			t.Fatal(err)
		}
		const size = 300
		shards := make([][]byte, geom.n)
		for i := range shards {
			shards[i] = make([]byte, size)
			rng.Read(shards[i])
		}
		if err := c.Encode(shards); err != nil {
			t.Fatal(err)
		}
		scratch := make([][]byte, geom.k)
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
			for j := range scratch {
				scratch[j] = bytes.Repeat([]byte{0xEE}, size)
			}
			views := append([][]byte(nil), scratch...)
			if err := c.DataShardsInto(have, views); err != nil {
				t.Fatalf("(%d,%d) mask=%b: %v", geom.n, geom.k, mask, err)
			}
			for j := range views {
				if !bytes.Equal(views[j], shards[j]) {
					t.Fatalf("(%d,%d) mask=%b: data shard %d diverged", geom.n, geom.k, mask, j)
				}
				_, present := have[j]
				inPlace := &views[j][0] == &shards[j][0]
				untouched := bytes.Equal(scratch[j], bytes.Repeat([]byte{0xEE}, size))
				if present != inPlace || present != untouched {
					t.Fatalf("(%d,%d) mask=%b: data shard %d present %v, read in place %v, scratch untouched %v",
						geom.n, geom.k, mask, j, present, inPlace, untouched)
				}
			}
		}
	}
	c, err := New(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	four := func() [][]byte { return [][]byte{make([]byte, 4), make([]byte, 4), make([]byte, 4)} }
	ok := map[int][]byte{0: make([]byte, 4), 1: make([]byte, 4), 2: make([]byte, 4)}
	for name, tc := range map[string]struct {
		have map[int][]byte
		out  [][]byte
	}{
		"too few shards":      {map[int][]byte{0: make([]byte, 4)}, four()},
		"out-of-range index":  {map[int][]byte{0: {1}, 1: {2}, 9: {3}}, four()},
		"mismatched sizes":    {map[int][]byte{0: make([]byte, 4), 1: make([]byte, 5), 2: make([]byte, 4)}, four()},
		"wrong output count":  {ok, four()[:2]},
		"short output buffer": {ok, [][]byte{make([]byte, 4), make([]byte, 3), make([]byte, 4)}},
		"empty shards":        {map[int][]byte{0: {}, 1: {}, 2: {}}, [][]byte{{}, {}, {}}},
	} {
		want := c.ReconstructDataInto(tc.have, append([][]byte(nil), tc.out...))
		got := c.DataShardsInto(tc.have, tc.out)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("%s: DataShardsInto %v, ReconstructDataInto %v", name, got, want)
		}
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

// kSubsetsOf calls fn with every k-subset of shards as a share map, in
// ascending bitmask order.
func kSubsetsOf(shards [][]byte, k int, fn func(mask int, have map[int][]byte)) {
	for mask := 0; mask < 1<<len(shards); mask++ {
		if popcount(mask) != k {
			continue
		}
		have := map[int][]byte{}
		for i := range shards {
			if mask&(1<<i) != 0 {
				have[i] = shards[i]
			}
		}
		fn(mask, have)
	}
}

// encodedShards returns the n shards of k random data shards of size
// bytes.
func encodedShards(t testing.TB, c *Codec, rng *rand.Rand, size int) [][]byte {
	t.Helper()
	shards := make([][]byte, c.N())
	for i := range shards {
		shards[i] = make([]byte, size)
		if i < c.K() {
			rng.Read(shards[i])
		}
	}
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	return shards
}

// TestRebuildRowIntoMatchesReconstruct is the differential test of the
// one-row rebuild: for every geometry, every k-subset and every target
// row, data and parity, RebuildRowInto into a dirty buffer equals the row
// of the codeword ReconstructDataInto plus Encode recover (decodeAll)
// from the same subset.
func TestRebuildRowIntoMatchesReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, geom := range []struct{ n, k int }{{4, 3}, {4, 2}, {5, 3}, {6, 4}, {9, 6}} {
		c := mustCodec(t, geom.n, geom.k)
		for _, size := range []int{1, 31, 4096, blockSize + 17} {
			shards := encodedShards(t, c, rng, size)
			out := make([]byte, size)
			kSubsetsOf(shards, geom.k, func(mask int, have map[int][]byte) {
				want := decodeAll(t, c, have, size)
				for row := 0; row < geom.n; row++ {
					rng.Read(out) // dirty
					if err := c.RebuildRowInto(have, row, out); err != nil {
						t.Fatalf("(%d,%d) size=%d subset=%b row=%d: %v", geom.n, geom.k, size, mask, row, err)
					}
					if !bytes.Equal(out, want[row]) || !bytes.Equal(out, shards[row]) {
						t.Fatalf("(%d,%d) size=%d subset=%b: row %d diverged from reconstruct + encode", geom.n, geom.k, size, mask, row)
					}
				}
			})
		}
	}
}

// TestRebuildRowIntoAllocations: with the (subset, row) coefficients
// cached, a one-row rebuild allocates nothing, from the data shards or a
// parity-bearing subset, into a data row or a parity row.
func TestRebuildRowIntoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts skipped under the race detector (sync.Pool drops Puts)")
	}
	c := mustCodec(t, 4, 3)
	shards := encodedShards(t, c, rand.New(rand.NewSource(54)), 8192)
	out := make([]byte, 8192)
	for _, tc := range []struct {
		have []int
		row  int
	}{{[]int{0, 1, 2}, 3}, {[]int{1, 2, 3}, 0}, {[]int{0, 1, 3}, 2}} {
		have := map[int][]byte{}
		for _, i := range tc.have {
			have[i] = shards[i]
		}
		rebuild := func() {
			if err := c.RebuildRowInto(have, tc.row, out); err != nil {
				t.Fatal(err)
			}
		}
		rebuild() // warm: coefficients, scratch pool
		if allocs := testing.AllocsPerRun(100, rebuild); allocs > 0 {
			t.Errorf("from %v into row %d: RebuildRowInto allocates %.1f objects per call, want 0", tc.have, tc.row, allocs)
		}
	}
}

// TestRebuildRowIntoValidation covers the error paths.
func TestRebuildRowIntoValidation(t *testing.T) {
	c := mustCodec(t, 4, 3)
	have := map[int][]byte{0: make([]byte, 4), 1: make([]byte, 4), 2: make([]byte, 4)}
	out := make([]byte, 4)
	for _, row := range []int{-1, 4} {
		if err := c.RebuildRowInto(have, row, out); !errors.Is(err, ErrInvalidShardNum) {
			t.Errorf("row %d: got %v, want ErrInvalidShardNum", row, err)
		}
	}
	if err := c.RebuildRowInto(map[int][]byte{0: out, 1: out}, 3, make([]byte, 4)); !errors.Is(err, ErrTooFewShards) {
		t.Errorf("2 of k=3 shards: got %v, want ErrTooFewShards", err)
	}
	if err := c.RebuildRowInto(map[int][]byte{0: out, 1: out, 7: out}, 3, make([]byte, 4)); !errors.Is(err, ErrInvalidShardNum) {
		t.Errorf("shard 7 of n=4: got %v, want ErrInvalidShardNum", err)
	}
	if err := c.RebuildRowInto(have, 3, nil); !errors.Is(err, ErrShardSize) {
		t.Errorf("empty out: got %v, want ErrShardSize", err)
	}
	if err := c.RebuildRowInto(have, 3, make([]byte, 5)); !errors.Is(err, ErrShardSize) {
		t.Errorf("mismatched out: got %v, want ErrShardSize", err)
	}
}

// FuzzRebuildRowInto cross-checks the one-row rebuild against
// ReconstructDataInto plus Encode on fuzzer-chosen data, geometries,
// k-subsets and rows.
func FuzzRebuildRowInto(f *testing.F) {
	f.Add([]byte{1}, uint8(0), uint8(0), uint8(0))
	f.Add([]byte("one lost share, one row"), uint8(1), uint8(3), uint8(2))
	f.Add(bytes.Repeat([]byte{0xA5}, 3*4096+1), uint8(2), uint8(5), uint8(9))
	f.Add(bytes.Repeat([]byte{0xFF}, 200), uint8(4), uint8(8), uint8(40))
	geoms := []struct{ n, k int }{{4, 3}, {4, 2}, {5, 3}, {6, 4}, {9, 6}}
	f.Fuzz(func(t *testing.T, data []byte, pick, row, subset uint8) {
		if len(data) == 0 || len(data) > 1<<16 {
			t.Skip()
		}
		geom := geoms[int(pick)%len(geoms)]
		c := mustCodec(t, geom.n, geom.k)
		shards := c.Split(data)
		if err := c.Encode(shards); err != nil {
			t.Fatal(err)
		}
		var subsets []map[int][]byte
		kSubsetsOf(shards, geom.k, func(_ int, have map[int][]byte) { subsets = append(subsets, have) })
		have := subsets[int(subset)%len(subsets)]
		r := int(row) % geom.n
		out := make([]byte, len(shards[0]))
		if err := c.RebuildRowInto(have, r, out); err != nil {
			t.Fatal(err)
		}
		if want := decodeAll(t, c, have, len(out)); !bytes.Equal(out, want[r]) || !bytes.Equal(out, shards[r]) {
			t.Fatalf("(%d,%d) row %d: one-row rebuild diverged from reconstruct + encode", geom.n, geom.k, r)
		}
	})
}
