//go:build amd64 && !noasm

package gf256

// Runtime CPU-feature detection and dispatch for the AVX2 kernels in
// kernel_amd64.s. Feature bits are read directly via CPUID / XGETBV
// (this module is dependency-free, so golang.org/x/sys/cpu is
// deliberately not pulled in): AVX2 requires AVX + OSXSAVE with XMM/YMM
// state enabled in XCR0 — without the OS-support check a kernel using
// YMM registers faults on machines whose OS never enabled extended
// state. A CPU without AVX2 runs the scalar kernel.

// asmName names the assembly kernel.
const asmName = "avx2"

// hasAsm reports whether this CPU runs the assembly kernel.
var hasAsm = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := gfCPUID(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := gfCPUID(1, 0)
	const osxsaveBit, avxBit = 1 << 27, 1 << 28
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	// XCR0 bits 1 (XMM) and 2 (YMM) must both be OS-enabled.
	if xcr0, _ := gfXGETBV(); xcr0&0x6 != 0x6 {
		return false
	}
	const avx2Bit = 1 << 5
	_, ebx7, _, _ := gfCPUID(7, 0)
	return ebx7&avx2Bit != 0
}

// mulAddAsm runs dst[i] ^= c*src[i] over the 32-byte-aligned prefix and
// returns the number of bytes processed (a multiple of 32; the caller
// finishes the tail byte-wise).
func mulAddAsm(tab *[32]byte, src, dst []byte) int {
	n := len(src) &^ 31
	if n > 0 {
		gfMulAddAVX2(&tab[0], &src[0], &dst[0], n)
	}
	return n
}

// mulAsm is mulAddAsm without the accumulate: dst[i] = c*src[i].
func mulAsm(tab *[32]byte, src, dst []byte) int {
	n := len(src) &^ 31
	if n > 0 {
		gfMulAVX2(&tab[0], &src[0], &dst[0], n)
	}
	return n
}

// xorAsm runs dst[i] ^= src[i] over the 32-byte-aligned prefix and
// returns the number of bytes processed.
func xorAsm(src, dst []byte) int {
	n := len(src) &^ 31
	if n > 0 {
		gfXorAVX2(&src[0], &dst[0], n)
	}
	return n
}

//go:noescape
func gfCPUID(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func gfXGETBV() (eax, edx uint32)

//go:noescape
func gfMulAddAVX2(tab, src, dst *byte, n int)

//go:noescape
func gfMulAVX2(tab, src, dst *byte, n int)

//go:noescape
func gfXorAVX2(src, dst *byte, n int)
