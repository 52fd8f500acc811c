package reedsolomon

import (
	"bytes"
	"math/rand"
	"testing"

	"cdstore/internal/gf256"
)

// TestCodecAllKernelsMatchScalar runs the full codec surface — encode
// and degraded decode (ReconstructDataInto from a parity-bearing
// subset) — once per kernel implementation this process can run
// (ssse3, avx2, neon, ...) and pins every one to the
// forced-scalar codec byte-for-byte. This is the end-to-end complement
// to gf256's per-slice differential tests: it exercises the blocked
// mulRows path and the cached inverse-row multiply with each kernel.
func TestCodecAllKernelsMatchScalar(t *testing.T) {
	const n, k = 6, 4
	scalar, err := NewWithField(n, k, gf256.NewScalar())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	sizes := []int{1, 17, 1000, 4096, 3*blockSize + 17}
	for _, name := range gf256.Kernels() {
		if name == "scalar" {
			continue
		}
		field, err := gf256.NewWithKernel(name)
		if err != nil {
			t.Fatalf("NewWithKernel(%q): %v", name, err)
		}
		codec, err := NewWithField(n, k, field)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range sizes {
			data := make([]byte, size)
			rng.Read(data)
			got := codec.Split(data)
			want := scalar.Split(data)
			if err := codec.Encode(got); err != nil {
				t.Fatal(err)
			}
			if err := scalar.Encode(want); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("kernel %s len=%d: parity shard %d != scalar", name, size, i)
				}
			}
			// Degraded decode: drop two data shards, recover from the
			// remaining data plus parity so the inverse-row multiply runs.
			have := map[int][]byte{}
			for _, idx := range []int{1, 3, 4, 5} {
				have[idx] = got[idx]
			}
			out := make([][]byte, k)
			for i := range out {
				out[i] = make([]byte, len(got[0]))
			}
			if err := codec.ReconstructDataInto(have, out); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k; i++ {
				if !bytes.Equal(out[i], want[i]) {
					t.Fatalf("kernel %s len=%d: reconstructed data shard %d wrong", name, size, i)
				}
			}
		}
	}
}

// TestCodecDispatchedMatchesScalar pins the dispatched-kernel codec (New)
// to the forced-scalar reference across data lengths 1..257 (plus
// block-crossing sizes) and several (n, k) geometries.
func TestCodecDispatchedMatchesScalar(t *testing.T) {
	scalarField := gf256.NewScalar()
	geometries := [][2]int{{4, 3}, {4, 2}, {8, 6}, {14, 10}}
	lengths := make([]int, 0, 280)
	for n := 1; n <= 257; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 4096, 4099, 3*blockSize+17)
	rng := rand.New(rand.NewSource(21))
	for _, g := range geometries {
		fast, err := New(g[0], g[1])
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
			fs := fast.Split(data)
			ss := scalar.Split(data)
			if err := fast.Encode(fs); err != nil {
				t.Fatal(err)
			}
			if err := scalar.Encode(ss); err != nil {
				t.Fatal(err)
			}
			for i := range fs {
				if !bytes.Equal(fs[i], ss[i]) {
					t.Fatalf("(n,k)=(%d,%d) len=%d shard %d: dispatched != scalar", g[0], g[1], size, i)
				}
			}
			// Reconstruction from a k-subset must agree too.
			have := map[int][]byte{}
			for _, idx := range rng.Perm(g[0])[:g[1]] {
				have[idx] = fs[idx]
			}
			fd, sd := fast.Split(data)[:g[1]], scalar.Split(data)[:g[1]]
			if err := fast.ReconstructDataInto(have, fd); err != nil {
				t.Fatal(err)
			}
			if err := scalar.ReconstructDataInto(have, sd); err != nil {
				t.Fatal(err)
			}
			for i := range fd {
				if !bytes.Equal(fd[i], sd[i]) {
					t.Fatalf("(n,k)=(%d,%d) len=%d reconstructed shard %d: dispatched != scalar", g[0], g[1], size, i)
				}
			}
		}
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
