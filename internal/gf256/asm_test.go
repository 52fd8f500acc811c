package gf256

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
)

// simdField returns New()'s Field, skipping the test where this CPU and
// build have no SIMD kernel and New() is the scalar oracle itself.
func simdField(tb testing.TB) *Field {
	tb.Helper()
	f := New()
	if f.Kernel() == "scalar" {
		tb.Skip("no SIMD kernel in this build/CPU: New() is the scalar kernel")
	}
	return f
}

// TestAsmMatchesScalarAllCoefficients pins the SIMD kernel New()
// dispatches to the scalar oracle for all 256 coefficients, across
// lengths that cover the 32/64-byte main loops and the byte-wise tails
// (up to 31 bytes on amd64), at unaligned slice offsets.
func TestAsmMatchesScalarAllCoefficients(t *testing.T) {
	asm := simdField(t)
	scalar := NewScalar()
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{0, 1, 15, 16, 17, 31, 32, 33, 47, 48, 63, 64, 65, 127, 257, 1024, 4099} {
		for _, off := range []int{0, 1, 7, 13} {
			srcBuf := make([]byte, n+off)
			dstBuf := make([]byte, n+off)
			rng.Read(srcBuf)
			rng.Read(dstBuf)
			src, dst := srcBuf[off:], dstBuf[off:]
			for c := 0; c < Order; c++ {
				wantAdd := append([]byte(nil), dst...)
				gotAdd := append([]byte(nil), dst...)
				scalar.MulAddSlice(byte(c), src, wantAdd)
				asm.MulAddSlice(byte(c), src, gotAdd)
				if !bytes.Equal(gotAdd, wantAdd) {
					t.Fatalf("%s MulAddSlice len=%d off=%d c=%d diverges from scalar", asm.Kernel(), n, off, c)
				}
				wantMul := make([]byte, n)
				gotMul := append([]byte(nil), dst...)
				scalar.MulSlice(byte(c), src, wantMul)
				asm.MulSlice(byte(c), src, gotMul)
				if !bytes.Equal(gotMul, wantMul) {
					t.Fatalf("%s MulSlice len=%d off=%d c=%d diverges from scalar", asm.Kernel(), n, off, c)
				}
			}
		}
	}
}

// TestXorAsmMatchesReference pins the SIMD xor kernel, which
// MulAddSlice's c=1 path (slice addition) runs.
func TestXorAsmMatchesReference(t *testing.T) {
	asm := simdField(t)
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{0, 1, 15, 16, 17, 31, 32, 33, 64, 65, 1023} {
		for _, off := range []int{0, 3} {
			srcBuf := make([]byte, n+off)
			dstBuf := make([]byte, n+off)
			rng.Read(srcBuf)
			rng.Read(dstBuf)
			src, dst := srcBuf[off:], dstBuf[off:]
			want := make([]byte, n)
			for i := range want {
				want[i] = dst[i] ^ src[i]
			}
			got := append([]byte(nil), dst...)
			asm.MulAddSlice(1, src, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s MulAddSlice c=1 len=%d off=%d wrong", asm.Kernel(), n, off)
			}
		}
	}
}

// TestNewDispatchesBestKernel pins the dispatch rule: New runs AVX2 on an
// amd64 CPU that has it (as the kernel reports in /proc/cpuinfo), NEON on
// arm64, and the scalar kernel otherwise and under noasm; only a SIMD
// Field carries the nibble tables.
func TestNewDispatchesBestKernel(t *testing.T) {
	want := "scalar"
	switch asmName {
	case "avx2":
		info, err := os.ReadFile("/proc/cpuinfo")
		if err != nil {
			t.Skipf("cannot read the CPU's flags: %v", err)
		}
		for _, line := range strings.Split(string(info), "\n") {
			if strings.HasPrefix(line, "flags") && slices.Contains(strings.Fields(line), "avx2") {
				want = "avx2"
			}
		}
	case "neon":
		want = "neon"
	}
	f := New()
	if got := f.Kernel(); got != want {
		t.Fatalf("New dispatched %q, want %q", got, want)
	}
	if (f.nib != nil) != (want != "scalar") {
		t.Fatalf("%s field: nib tables present = %v", want, f.nib != nil)
	}
	if s := NewScalar(); s.nib != nil || s.Kernel() != "scalar" {
		t.Fatalf("NewScalar runs %q, nib tables present = %v", s.Kernel(), s.nib != nil)
	}
}

func benchmarkMulAddKernel(b *testing.B, f *Field, size int) {
	src := make([]byte, size)
	dst := make([]byte, size)
	rand.New(rand.NewSource(2)).Read(src)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MulAddSlice(173, src, dst)
	}
}

// BenchmarkMulAddSliceKernels measures the scalar oracle against the
// kernel New() dispatches.
func BenchmarkMulAddSliceKernels(b *testing.B) {
	for _, f := range fieldsUnderTest() {
		for _, size := range []int{4 << 10, 64 << 10} {
			b.Run(fmt.Sprintf("%s/%dKB", f.Kernel(), size>>10), func(b *testing.B) {
				benchmarkMulAddKernel(b, f, size)
			})
		}
	}
}
