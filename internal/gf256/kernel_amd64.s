//go:build amd64 && !noasm

// Split-nibble GF(2^8) bulk kernels for amd64 (AVX2).
//
// Every multiply kernel consumes a 32-byte per-coefficient table (see
// nibTabs in nib.go): bytes 0..15 hold c*(x&0x0f) for x = 0..15, bytes
// 16..31 hold c*(x<<4). Multiplication by a constant is XOR-linear over
// GF(2^8), so c*x = table_lo[x&0x0f] ^ table_hi[x>>4], and VPSHUFB
// performs 32 such lookups per instruction. The high-nibble index is
// formed with a word shift followed by a byte mask (VPSRLW $4 then VPAND
// 0x0f), which is exact per byte because the mask discards the bits the
// word shift drags across byte boundaries.
//
// Contracts (enforced by the Go wrappers in kernel_amd64.go):
//   - n > 0 and n % 32 == 0
//   - src and dst do not overlap
// Loads and stores are unaligned forms throughout, so slice offsets
// need no alignment.

#include "textflag.h"

DATA nibMask<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibMask<>+8(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibMask<>(SB), RODATA|NOPTR, $16

// func gfCPUID(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·gfCPUID(SB), NOSPLIT, $0-24
	MOVL	eaxArg+0(FP), AX
	MOVL	ecxArg+4(FP), CX
	CPUID
	MOVL	AX, eax+8(FP)
	MOVL	BX, ebx+12(FP)
	MOVL	CX, ecx+16(FP)
	MOVL	DX, edx+20(FP)
	RET

// func gfXGETBV() (eax, edx uint32)
TEXT ·gfXGETBV(SB), NOSPLIT, $0-8
	XORL	CX, CX
	XGETBV
	MOVL	AX, eax+0(FP)
	MOVL	DX, edx+4(FP)
	RET

// func gfMulAddAVX2(tab, src, dst *byte, n int)
// dst[i] ^= c*src[i] for n bytes (n % 32 == 0, n > 0).
TEXT ·gfMulAddAVX2(SB), NOSPLIT, $0-32
	MOVQ	tab+0(FP), AX
	MOVQ	src+8(FP), SI
	MOVQ	dst+16(FP), DI
	MOVQ	n+24(FP), CX
	VBROADCASTI128	(AX), Y6	// low-nibble products in both lanes
	VBROADCASTI128	16(AX), Y7	// high-nibble products in both lanes
	VBROADCASTI128	nibMask<>(SB), Y5

	// 64 bytes per iteration, two independent 32-byte lanes.
loop64:
	CMPQ	CX, $64
	JB	tail32
	VMOVDQU	(SI), Y0
	VMOVDQU	32(SI), Y1
	VPSRLW	$4, Y0, Y2
	VPSRLW	$4, Y1, Y3
	VPAND	Y5, Y0, Y0
	VPAND	Y5, Y1, Y1
	VPAND	Y5, Y2, Y2
	VPAND	Y5, Y3, Y3
	VPSHUFB	Y0, Y6, Y8
	VPSHUFB	Y2, Y7, Y9
	VPSHUFB	Y1, Y6, Y10
	VPSHUFB	Y3, Y7, Y11
	VPXOR	Y9, Y8, Y8
	VPXOR	Y11, Y10, Y10
	VPXOR	(DI), Y8, Y8
	VPXOR	32(DI), Y10, Y10
	VMOVDQU	Y8, (DI)
	VMOVDQU	Y10, 32(DI)
	ADDQ	$64, SI
	ADDQ	$64, DI
	SUBQ	$64, CX
	JMP	loop64

tail32:	// at most one trailing 32-byte group (n is a multiple of 32)
	TESTQ	CX, CX
	JZ	done
	VMOVDQU	(SI), Y0
	VPSRLW	$4, Y0, Y2
	VPAND	Y5, Y0, Y0
	VPAND	Y5, Y2, Y2
	VPSHUFB	Y0, Y6, Y8
	VPSHUFB	Y2, Y7, Y9
	VPXOR	Y9, Y8, Y8
	VPXOR	(DI), Y8, Y8
	VMOVDQU	Y8, (DI)
done:
	VZEROUPPER
	RET

// func gfMulAVX2(tab, src, dst *byte, n int)
// dst[i] = c*src[i] for n bytes (n % 32 == 0, n > 0).
TEXT ·gfMulAVX2(SB), NOSPLIT, $0-32
	MOVQ	tab+0(FP), AX
	MOVQ	src+8(FP), SI
	MOVQ	dst+16(FP), DI
	MOVQ	n+24(FP), CX
	VBROADCASTI128	(AX), Y6
	VBROADCASTI128	16(AX), Y7
	VBROADCASTI128	nibMask<>(SB), Y5
loop64:
	CMPQ	CX, $64
	JB	tail32
	VMOVDQU	(SI), Y0
	VMOVDQU	32(SI), Y1
	VPSRLW	$4, Y0, Y2
	VPSRLW	$4, Y1, Y3
	VPAND	Y5, Y0, Y0
	VPAND	Y5, Y1, Y1
	VPAND	Y5, Y2, Y2
	VPAND	Y5, Y3, Y3
	VPSHUFB	Y0, Y6, Y8
	VPSHUFB	Y2, Y7, Y9
	VPSHUFB	Y1, Y6, Y10
	VPSHUFB	Y3, Y7, Y11
	VPXOR	Y9, Y8, Y8
	VPXOR	Y11, Y10, Y10
	VMOVDQU	Y8, (DI)
	VMOVDQU	Y10, 32(DI)
	ADDQ	$64, SI
	ADDQ	$64, DI
	SUBQ	$64, CX
	JMP	loop64
tail32:
	TESTQ	CX, CX
	JZ	done
	VMOVDQU	(SI), Y0
	VPSRLW	$4, Y0, Y2
	VPAND	Y5, Y0, Y0
	VPAND	Y5, Y2, Y2
	VPSHUFB	Y0, Y6, Y8
	VPSHUFB	Y2, Y7, Y9
	VPXOR	Y9, Y8, Y8
	VMOVDQU	Y8, (DI)
done:
	VZEROUPPER
	RET

// func gfXorAVX2(src, dst *byte, n int)
// dst[i] ^= src[i] for n bytes (n % 32 == 0, n > 0).
TEXT ·gfXorAVX2(SB), NOSPLIT, $0-24
	MOVQ	src+0(FP), SI
	MOVQ	dst+8(FP), DI
	MOVQ	n+16(FP), CX
loop64:
	CMPQ	CX, $64
	JB	tail32
	VMOVDQU	(SI), Y0
	VMOVDQU	32(SI), Y1
	VPXOR	(DI), Y0, Y0
	VPXOR	32(DI), Y1, Y1
	VMOVDQU	Y0, (DI)
	VMOVDQU	Y1, 32(DI)
	ADDQ	$64, SI
	ADDQ	$64, DI
	SUBQ	$64, CX
	JMP	loop64
tail32:
	TESTQ	CX, CX
	JZ	done
	VMOVDQU	(SI), Y0
	VPXOR	(DI), Y0, Y0
	VMOVDQU	Y0, (DI)
done:
	VZEROUPPER
	RET
