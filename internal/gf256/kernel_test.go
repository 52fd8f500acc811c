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

// fieldsUnderTest returns the scalar oracle and, where this CPU and build
// have one, the SIMD Field New() dispatches.
func fieldsUnderTest() []*Field {
	fields := []*Field{NewScalar()}
	if f := New(); f.Kernel() != "scalar" {
		fields = append(fields, f)
	}
	return fields
}

// TestMulAddSliceAllCoefficients pins the bulk loops of both kernels —
// the scalar oracle's unrolled row loop and the SIMD kernel — to
// the elementary byte-by-byte product, for every coefficient, both the
// accumulate and the overwrite form, at a length with SIMD groups and a
// byte tail.
func TestMulAddSliceAllCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := make([]byte, 131)
	dst := make([]byte, 131)
	rng.Read(src)
	rng.Read(dst)
	for _, f := range fieldsUnderTest() {
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
				t.Fatalf("%s MulAddSlice c=%d disagrees with byte-wise Mul", f.Kernel(), c)
			}
			f.MulSlice(byte(c), src, got) // stale contents must be fully overwritten
			if !bytes.Equal(got, wantMul) {
				t.Fatalf("%s MulSlice c=%d disagrees with byte-wise Mul", f.Kernel(), c)
			}
		}
	}
}

// TestAddSliceMatchesScalarXOR pins slice addition — MulAddSlice with
// coefficient 1, which runs the xor kernel — to plain XOR on both kernels,
// at every length kernelLengths sweeps.
func TestAddSliceMatchesScalarXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, f := range fieldsUnderTest() {
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
				t.Fatalf("%s MulAddSlice c=1 len=%d mismatch", f.Kernel(), n)
			}
		}
	}
}
