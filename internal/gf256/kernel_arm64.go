//go:build arm64 && !noasm

package gf256

// Dispatch for the arm64 NEON kernels in kernel_arm64.s. Advanced SIMD
// (NEON) is an architectural requirement of every arm64 target Go
// supports, so there is no runtime feature probe to do.

// asmName names the assembly kernel.
const asmName = "neon"

// hasAsm reports whether this CPU runs the assembly kernel: always.
const hasAsm = true

// mulAddAsm runs dst[i] ^= c*src[i] over the 16-byte-aligned prefix
// through the NEON kernel and returns the number of bytes processed (a
// multiple of 16; the caller finishes the tail byte-wise).
func mulAddAsm(tab *[32]byte, src, dst []byte) int {
	n := len(src) &^ 15
	if n > 0 {
		gfMulAddNEON(&tab[0], &src[0], &dst[0], n)
	}
	return n
}

// mulAsm is mulAddAsm without the accumulate: dst[i] = c*src[i].
func mulAsm(tab *[32]byte, src, dst []byte) int {
	n := len(src) &^ 15
	if n > 0 {
		gfMulNEON(&tab[0], &src[0], &dst[0], n)
	}
	return n
}

// xorAsm runs dst[i] ^= src[i] over the 16-byte-aligned prefix and
// returns the number of bytes processed.
func xorAsm(src, dst []byte) int {
	n := len(src) &^ 15
	if n > 0 {
		gfXorNEON(&src[0], &dst[0], n)
	}
	return n
}

//go:noescape
func gfMulAddNEON(tab, src, dst *byte, n int)

//go:noescape
func gfMulNEON(tab, src, dst *byte, n int)

//go:noescape
func gfXorNEON(src, dst *byte, n int)
