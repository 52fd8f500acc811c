package reedsolomon

import (
	"bytes"
	"math/rand"
	"testing"

	"cdstore/internal/gf256"
)

// TestEncodeWideMatchesScalar pins the dispatched-kernel codec (New) to
// the forced-scalar reference across data lengths 0..257 (plus block-crossing
// sizes) and several (n, k) geometries.
func TestEncodeWideMatchesScalar(t *testing.T) {
	scalarField := gf256.NewScalar()
	geometries := [][2]int{{4, 3}, {4, 2}, {8, 6}, {14, 10}}
	lengths := make([]int, 0, 280)
	for n := 1; n <= 257; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 4096, 4099, 3*blockSize+17)
	rng := rand.New(rand.NewSource(21))
	for _, g := range geometries {
		wide, err := New(g[0], g[1])
		if err != nil {
			t.Fatal(err)
		}
		scalar, err := NewWithField(g[0], g[1], scalarField)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range lengths {
			data := make([]byte, size)
			rng.Read(data)
			ws := wide.Split(data)
			ss := scalar.Split(data)
			if err := wide.Encode(ws); err != nil {
				t.Fatal(err)
			}
			if err := scalar.Encode(ss); err != nil {
				t.Fatal(err)
			}
			for i := range ws {
				if !bytes.Equal(ws[i], ss[i]) {
					t.Fatalf("(n,k)=(%d,%d) len=%d shard %d: wide != scalar", g[0], g[1], size, i)
				}
			}
			// Reconstruction from a k-subset must agree too.
			have := map[int][]byte{}
			for _, idx := range rng.Perm(g[0])[:g[1]] {
				have[idx] = ws[idx]
			}
			wd, err := wide.ReconstructData(have)
			if err != nil {
				t.Fatal(err)
			}
			sd, err := scalar.ReconstructData(have)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wd {
				if !bytes.Equal(wd[i], sd[i]) {
					t.Fatalf("(n,k)=(%d,%d) len=%d reconstructed shard %d: wide != scalar", g[0], g[1], size, i)
				}
			}
		}
	}
}

// TestEncodeIntoMatchesEncode checks the caller-buffer variant produces
// byte-identical parity.
func TestEncodeIntoMatchesEncode(t *testing.T) {
	c, err := New(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	for _, size := range []int{1, 63, 64, 1000, 70000} {
		data := make([]byte, size)
		rng.Read(data)
		ref := c.Split(data)
		if err := c.Encode(ref); err != nil {
			t.Fatal(err)
		}
		shardSize := c.ShardSize(size)
		shards := make([][]byte, c.N())
		for i := range shards {
			shards[i] = make([]byte, shardSize)
			rng.Read(shards[i]) // stale contents must not leak through
		}
		if err := c.SplitInto(data, shards); err != nil {
			t.Fatal(err)
		}
		if err := c.EncodeInto(shards[:c.K()], shards[c.K():]); err != nil {
			t.Fatal(err)
		}
		for i := range shards {
			if !bytes.Equal(shards[i], ref[i]) {
				t.Fatalf("len=%d shard %d: SplitInto+EncodeInto != Split+Encode", size, i)
			}
		}
	}
}

func TestEncodeIntoValidates(t *testing.T) {
	c, err := New(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(n, size int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = make([]byte, size)
		}
		return out
	}
	if err := c.EncodeInto(mk(2, 8), mk(1, 8)); err == nil {
		t.Error("wrong data shard count accepted")
	}
	if err := c.EncodeInto(mk(3, 8), mk(2, 8)); err == nil {
		t.Error("wrong parity shard count accepted")
	}
	if err := c.EncodeInto(mk(3, 0), mk(1, 0)); err == nil {
		t.Error("zero-size shards accepted")
	}
	bad := mk(3, 8)
	bad[1] = make([]byte, 7)
	if err := c.EncodeInto(bad, mk(1, 8)); err == nil {
		t.Error("mismatched data shard size accepted")
	}
	if err := c.SplitInto(make([]byte, 30), mk(4, 9)); err == nil {
		t.Error("SplitInto accepted wrong shard size")
	}
	if err := c.SplitInto(make([]byte, 30), mk(3, 10)); err == nil {
		t.Error("SplitInto accepted wrong shard count")
	}
}

// TestSplitIntoOverwritesStale ensures reused (dirty) buffers come out
// identical to fresh ones, including the zero padding.
func TestSplitIntoOverwritesStale(t *testing.T) {
	c, err := New(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte{1, 2, 3, 4, 5} // shardSize 2, shard 2 is {5, 0}
	shards := make([][]byte, 4)
	for i := range shards {
		shards[i] = []byte{0xaa, 0xbb}
	}
	if err := c.SplitInto(data, shards); err != nil {
		t.Fatal(err)
	}
	want := [][]byte{{1, 2}, {3, 4}, {5, 0}, {0xaa, 0xbb}}
	for i := range want {
		if !bytes.Equal(shards[i], want[i]) {
			t.Fatalf("shard %d = %v, want %v", i, shards[i], want[i])
		}
	}
}

// TestEncodeAllocationFree asserts the steady-state Encode path performs
// no allocations.
func TestEncodeAllocationFree(t *testing.T) {
	c, err := New(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	shards := c.Split(make([]byte, 4096))
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := c.Encode(shards); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Encode allocates %.1f objects per call, want 0", allocs)
	}
}
