package gf256

import (
	"bytes"
	"math/rand"
	"testing"
)

// kernelLengths are the slice lengths the differential tests sweep: every
// length 0..257 (tails, off-by-one word and SIMD-group boundaries) plus
// larger sizes that exercise the 32-byte main loops and their tails.
func kernelLengths() []int {
	lens := make([]int, 0, 280)
	for n := 0; n <= 257; n++ {
		lens = append(lens, n)
	}
	for _, n := range []int{511, 512, 513, 1023, 1024, 1029, 4096, 4099, 8192} {
		lens = append(lens, n)
	}
	return lens
}

// TestMulAddSliceAllCoefficients pins the bulk loops of every kernel this
// process can run — the scalar oracle's unrolled row loop included — to
// the elementary byte-by-byte product, for every coefficient, both the
// accumulate and the overwrite form, at a length with SIMD groups and a
// byte tail.
func TestMulAddSliceAllCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := make([]byte, 131)
	dst := make([]byte, 131)
	rng.Read(src)
	rng.Read(dst)
	for _, name := range Kernels() {
		f, err := NewWithKernel(name)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < Order; c++ {
			wantMul := make([]byte, len(src))
			wantAdd := make([]byte, len(src))
			for i, v := range src {
				wantMul[i] = f.Mul(byte(c), v)
				wantAdd[i] = dst[i] ^ wantMul[i]
			}
			got := append([]byte(nil), dst...)
			f.MulAddSlice(byte(c), src, got)
			if !bytes.Equal(got, wantAdd) {
				t.Fatalf("%s MulAddSlice c=%d disagrees with byte-wise Mul", name, c)
			}
			f.MulSlice(byte(c), src, got) // stale contents must be fully overwritten
			if !bytes.Equal(got, wantMul) {
				t.Fatalf("%s MulSlice c=%d disagrees with byte-wise Mul", name, c)
			}
		}
	}
}

// TestAddSliceMatchesScalarXOR pins slice addition — MulAddSlice with
// coefficient 1, which runs the xor kernel — to plain XOR on every kernel
// this process can run, at every length kernelLengths sweeps.
func TestAddSliceMatchesScalarXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, name := range Kernels() {
		f, err := NewWithKernel(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range kernelLengths() {
			src := make([]byte, n)
			dst := make([]byte, n)
			rng.Read(src)
			rng.Read(dst)
			want := make([]byte, n)
			for i := range want {
				want[i] = dst[i] ^ src[i]
			}
			f.MulAddSlice(1, src, dst)
			if !bytes.Equal(dst, want) {
				t.Fatalf("%s MulAddSlice c=1 len=%d mismatch", name, n)
			}
		}
	}
}

func BenchmarkMulAddSliceScalar(b *testing.B) {
	f := NewScalar()
	src := make([]byte, 8192)
	dst := make([]byte, 8192)
	rand.New(rand.NewSource(2)).Read(src)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MulAddSlice(173, src, dst)
	}
}
