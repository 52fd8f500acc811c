//go:build amd64 && !noasm

package gf256

// Runtime CPU-feature detection and dispatch for the amd64 assembly
// kernels in kernel_amd64.s. Feature bits are read directly via CPUID /
// XGETBV (this module is dependency-free, so golang.org/x/sys/cpu is
// deliberately not pulled in): SSSE3 gates PSHUFB, and AVX2 additionally
// requires AVX + OSXSAVE with XMM/YMM state enabled in XCR0 — without
// the OS-support check a kernel using YMM registers faults on machines
// whose OS never enabled extended state.

type asmLevel uint8

const (
	asmNone  asmLevel = iota
	asmSSSE3          // 16-byte PSHUFB steps
	asmAVX2           // 32/64-byte VPSHUFB steps
)

// bestAsm is the most capable assembly kernel this CPU can run.
var bestAsm = detectAsm()

func detectAsm() asmLevel {
	maxID, _, _, _ := gfCPUID(0, 0)
	if maxID < 1 {
		return asmNone
	}
	_, _, ecx1, _ := gfCPUID(1, 0)
	const ssse3Bit = 1 << 9
	if ecx1&ssse3Bit == 0 {
		return asmNone
	}
	lvl := asmSSSE3
	const osxsaveBit, avxBit = 1 << 27, 1 << 28
	if maxID >= 7 && ecx1&osxsaveBit != 0 && ecx1&avxBit != 0 {
		// XCR0 bits 1 (XMM) and 2 (YMM) must both be OS-enabled.
		if xcr0, _ := gfXGETBV(); xcr0&0x6 == 0x6 {
			const avx2Bit = 1 << 5
			if _, ebx7, _, _ := gfCPUID(7, 0); ebx7&avx2Bit != 0 {
				lvl = asmAVX2
			}
		}
	}
	return lvl
}

// asmLevels lists the assembly kernels this process can run, weakest
// first. On an AVX2 machine both levels are runnable, which lets the
// per-kernel benchmarks and the fuzzer cover SSSE3 even where AVX2 would win.
func asmLevels() []asmLevel {
	switch bestAsm {
	case asmAVX2:
		return []asmLevel{asmSSSE3, asmAVX2}
	case asmSSSE3:
		return []asmLevel{asmSSSE3}
	}
	return nil
}

func asmLevelName(l asmLevel) string {
	switch l {
	case asmSSSE3:
		return "ssse3"
	case asmAVX2:
		return "avx2"
	}
	return "none"
}

// mulAddAsm runs dst[i] ^= c*src[i] over the 16-byte-aligned prefix
// through the level-l kernel and returns the number of bytes processed
// (a multiple of 16; the caller finishes the tail byte-wise). The AVX2
// kernel takes 32-byte multiples; a trailing lone 16-byte group runs
// through the SSSE3 kernel, so the processed prefix is uniform across
// levels.
func mulAddAsm(l asmLevel, tab *[32]byte, src, dst []byte) int {
	n := len(src) &^ 15
	if n == 0 {
		return 0
	}
	if l >= asmAVX2 && n >= 32 {
		m := n &^ 31
		gfMulAddAVX2(&tab[0], &src[0], &dst[0], m)
		if n > m {
			gfMulAddSSSE3(&tab[0], &src[m], &dst[m], 16)
		}
		return n
	}
	gfMulAddSSSE3(&tab[0], &src[0], &dst[0], n)
	return n
}

// mulAsm is mulAddAsm without the accumulate: dst[i] = c*src[i].
func mulAsm(l asmLevel, tab *[32]byte, src, dst []byte) int {
	n := len(src) &^ 15
	if n == 0 {
		return 0
	}
	if l >= asmAVX2 && n >= 32 {
		m := n &^ 31
		gfMulAVX2(&tab[0], &src[0], &dst[0], m)
		if n > m {
			gfMulSSSE3(&tab[0], &src[m], &dst[m], 16)
		}
		return n
	}
	gfMulSSSE3(&tab[0], &src[0], &dst[0], n)
	return n
}

// xorAsm runs dst[i] ^= src[i] over the 16-byte-aligned prefix and
// returns the number of bytes processed.
func xorAsm(l asmLevel, src, dst []byte) int {
	n := len(src) &^ 15
	if n == 0 {
		return 0
	}
	if l >= asmAVX2 && n >= 32 {
		m := n &^ 31
		gfXorAVX2(&src[0], &dst[0], m)
		if n > m {
			gfXorSSE2(&src[m], &dst[m], 16)
		}
		return n
	}
	gfXorSSE2(&src[0], &dst[0], n)
	return n
}

//go:noescape
func gfCPUID(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func gfXGETBV() (eax, edx uint32)

//go:noescape
func gfMulAddSSSE3(tab, src, dst *byte, n int)

//go:noescape
func gfMulSSSE3(tab, src, dst *byte, n int)

//go:noescape
func gfXorSSE2(src, dst *byte, n int)

//go:noescape
func gfMulAddAVX2(tab, src, dst *byte, n int)

//go:noescape
func gfMulAVX2(tab, src, dst *byte, n int)

//go:noescape
func gfXorAVX2(src, dst *byte, n int)
