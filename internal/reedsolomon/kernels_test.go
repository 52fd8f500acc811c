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
