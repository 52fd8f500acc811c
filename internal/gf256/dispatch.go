package gf256

// Kernel selection. A Field runs one of two bulk kernels:
//
//	scalar — byte-at-a-time lookups in the coefficient's 256-entry row of
//	         the multiplication table; the differential oracle, and what
//	         every build without an assembly kernel runs
//	asm    — split-nibble SIMD (SSSE3/AVX2 on amd64, NEON on arm64) over
//	         eager 32-byte-per-coefficient tables (nib.go)
//
// New picks the best assembly level the CPU and build support and the
// scalar kernel otherwise; nothing but the CPU and the `noasm` build tag
// decides. NewScalar and NewWithKernel pin a Field to one kernel for the
// differential tests and per-kernel benchmarks.
//
// Why the table shape follows the execution engine: multiplication by a
// constant is linear over GF(2), so c*x = c*(x&0x0f) ^ c*(x&0xf0) and two
// 16-entry tables per coefficient suffice. Sixteen entries is exactly one
// 128-bit shuffle register, so PSHUFB/VPSHUFB/VTBL performs 16 or 32 of
// those lookups in one instruction. Without a vector shuffle each nibble
// lookup is an ordinary load and the same shape pays two dependent loads
// per byte where the plain row pays one, which is why the scalar kernel
// reads whole rows and only an asm Field builds the nibble tables.

import (
	"fmt"
	"runtime"
)

// kernelByName resolves a kernel name to the assembly level that runs it
// (asmNone for "scalar"), failing for names this build/CPU cannot run.
func kernelByName(name string) (asmLevel, error) {
	switch name {
	case "scalar":
		return asmNone, nil
	case "asm":
		if bestAsm == asmNone {
			return asmNone, fmt.Errorf("no assembly kernel available in this build on %s/%s", runtime.GOOS, runtime.GOARCH)
		}
		return bestAsm, nil
	}
	for _, l := range asmLevels() {
		if asmLevelName(l) == name {
			return l, nil
		}
	}
	return asmNone, fmt.Errorf("unknown or unavailable kernel %q (this process has %v)", name, Kernels())
}

// Kernels lists every kernel implementation this process can run:
// "scalar" always, plus the assembly levels the CPU and build support
// ("ssse3"/"avx2" on amd64, "neon" on arm64; none under the noasm tag).
// Names are valid inputs to NewWithKernel.
func Kernels() []string {
	ks := []string{"scalar"}
	for _, l := range asmLevels() {
		ks = append(ks, asmLevelName(l))
	}
	return ks
}

// NewWithKernel constructs a Field pinned to the named kernel — one of
// Kernels(), or "asm" for the best available assembly level. It exists
// for differential testing, debugging, and per-kernel benchmarks;
// production callers use New and get the dispatched best.
func NewWithKernel(name string) (*Field, error) {
	l, err := kernelByName(name)
	if err != nil {
		return nil, fmt.Errorf("gf256: %w", err)
	}
	return newField(l), nil
}

// Kernel reports which kernel implementation this Field runs: "scalar"
// or the assembly level name ("ssse3", "avx2", "neon").
func (f *Field) Kernel() string {
	if f.asm == asmNone {
		return "scalar"
	}
	return asmLevelName(f.asm)
}
