package gf256

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// asmKernelNames lists the assembly kernels runnable in this process
// (empty under noasm or on CPUs without SIMD support).
func asmKernelNames() []string {
	var names []string
	for _, l := range asmLevels() {
		names = append(names, asmLevelName(l))
	}
	return names
}

// TestAsmMatchesScalarAllCoefficients pins every available assembly
// kernel to the scalar oracle for all 256 coefficients, across lengths
// that cover the 32/64-byte main loops, the 16-byte tail groups, and
// the byte-wise tails, at unaligned slice offsets.
func TestAsmMatchesScalarAllCoefficients(t *testing.T) {
	names := asmKernelNames()
	if len(names) == 0 {
		t.Skip("no assembly kernel in this build/CPU")
	}
	scalar := NewScalar()
	rng := rand.New(rand.NewSource(21))
	for _, name := range names {
		asm, err := NewWithKernel(name)
		if err != nil {
			t.Fatal(err)
		}
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
						t.Fatalf("%s MulAddSlice len=%d off=%d c=%d diverges from scalar", name, n, off, c)
					}
					wantMul := make([]byte, n)
					gotMul := append([]byte(nil), dst...)
					scalar.MulSlice(byte(c), src, wantMul)
					asm.MulSlice(byte(c), src, gotMul)
					if !bytes.Equal(gotMul, wantMul) {
						t.Fatalf("%s MulSlice len=%d off=%d c=%d diverges from scalar", name, n, off, c)
					}
				}
			}
		}
	}
}

// TestXorAsmMatchesReference pins the assembly xor kernels (both the
// MulAddSlice c=1 path and package-level AddSlice feed through them).
func TestXorAsmMatchesReference(t *testing.T) {
	names := asmKernelNames()
	if len(names) == 0 {
		t.Skip("no assembly kernel in this build/CPU")
	}
	rng := rand.New(rand.NewSource(22))
	for _, name := range names {
		asm, err := NewWithKernel(name)
		if err != nil {
			t.Fatal(err)
		}
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
					t.Fatalf("%s MulAddSlice c=1 len=%d off=%d wrong", name, n, off)
				}
			}
		}
	}
}

// TestNewDispatchesBestKernel pins the dispatch rule: New selects the
// best assembly level where the CPU and build have one and the scalar
// kernel otherwise, and only an assembly Field carries the nibble tables.
func TestNewDispatchesBestKernel(t *testing.T) {
	want := "scalar"
	if bestAsm != asmNone {
		want = asmLevelName(bestAsm)
	}
	f := New()
	if got := f.Kernel(); got != want {
		t.Fatalf("New dispatched %q, want %q", got, want)
	}
	if (f.nib != nil) != (bestAsm != asmNone) {
		t.Fatalf("%s field: nib tables present = %v", want, f.nib != nil)
	}
	if NewScalar().nib != nil {
		t.Fatal("scalar field built nib tables it never reads")
	}
}

// TestNewWithKernelNames: every listed kernel constructs and reports
// its own name; unknown names fail.
func TestNewWithKernelNames(t *testing.T) {
	for _, name := range Kernels() {
		f, err := NewWithKernel(name)
		if err != nil {
			t.Fatalf("NewWithKernel(%q): %v", name, err)
		}
		if got := f.Kernel(); got != name {
			t.Fatalf("NewWithKernel(%q).Kernel() = %q", name, got)
		}
	}
	if _, err := NewWithKernel("pshufb9000"); err == nil {
		t.Fatal("unknown kernel name accepted")
	}
	if bestAsm == asmNone {
		if _, err := NewWithKernel("asm"); err == nil {
			t.Fatal(`NewWithKernel("asm") succeeded with no assembly available`)
		}
	} else if f, _ := NewWithKernel("asm"); f.Kernel() != asmLevelName(bestAsm) {
		t.Fatalf(`NewWithKernel("asm") resolved to %q, want best level %q`, f.Kernel(), asmLevelName(bestAsm))
	}
}

// TestKernelsListShape pins the public kernel inventory: the scalar
// oracle first, then exactly the assembly levels this process can run.
func TestKernelsListShape(t *testing.T) {
	want := append([]string{"scalar"}, asmKernelNames()...)
	if got := Kernels(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Kernels() = %v, want %v", got, want)
	}
}

func benchmarkMulAddKernel(b *testing.B, name string, size int) {
	f, err := NewWithKernel(name)
	if err != nil {
		b.Skip(err)
	}
	src := make([]byte, size)
	dst := make([]byte, size)
	rand.New(rand.NewSource(2)).Read(src)
	f.MulAddSlice(173, src, dst) // build any lazy tables outside the loop
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MulAddSlice(173, src, dst)
	}
}

func BenchmarkMulAddSliceKernels(b *testing.B) {
	for _, name := range Kernels() {
		for _, size := range []int{4 << 10, 64 << 10} {
			b.Run(fmt.Sprintf("%s/%dKB", name, size>>10), func(b *testing.B) {
				benchmarkMulAddKernel(b, name, size)
			})
		}
	}
}
