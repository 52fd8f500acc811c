package gf256

// Kernel selection. A Field runs one of two bulk kernels:
//
//	scalar — byte-at-a-time lookups in the coefficient's 256-entry row of
//	         the multiplication table; the differential oracle, and what
//	         every build or CPU without the assembly kernel runs
//	asm    — split-nibble SIMD (AVX2 on amd64, NEON on arm64) over
//	         eager 32-byte-per-coefficient tables (nib.go)
//
// New takes the assembly kernel where the CPU and build have it and the
// scalar kernel otherwise; nothing but the CPU and the `noasm` build tag
// decides. NewScalar pins a Field to the scalar kernel for the
// differential tests and benchmarks.
//
// Why the table shape follows the execution engine: multiplication by a
// constant is linear over GF(2), so c*x = c*(x&0x0f) ^ c*(x&0xf0) and two
// 16-entry tables per coefficient suffice. Sixteen entries is exactly one
// 128-bit shuffle register, so VPSHUFB/VTBL performs 16 or 32 of those
// lookups in one instruction. Without a vector shuffle each nibble
// lookup is an ordinary load and the same shape pays two dependent loads
// per byte where the plain row pays one, which is why the scalar kernel
// reads whole rows and only an asm Field builds the nibble tables.

// Kernel reports which kernel implementation this Field runs: "scalar"
// or the assembly kernel's name ("avx2", "neon").
func (f *Field) Kernel() string {
	if f.nib == nil {
		return "scalar"
	}
	return asmName
}
