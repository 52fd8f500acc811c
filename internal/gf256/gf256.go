// Package gf256 implements arithmetic over the Galois field GF(2^8).
//
// The field is constructed modulo the irreducible polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the same polynomial used by most
// Reed-Solomon deployments (and by GF-Complete's default w=8 tables, which
// the CDStore paper uses via Jerasure). All operations are table driven:
// a 64KB full multiplication table makes Mul a single load, and per-symbol
// row tables let bulk slice operations run at memory speed.
//
// Bulk operations (MulSlice, MulAddSlice) dispatch at Field
// construction to one of two kernels: hand-written split-nibble SIMD
// (AVX2 on amd64, NEON on arm64; see kernel_*.s and dispatch.go)
// where the CPU and build have it, else the byte-at-a-time scalar row
// loop, which also finishes the SIMD kernels' tails and, via NewScalar,
// is the differential-testing reference. The CPU and the noasm build tag
// alone decide which.
//
// The zero Field value is not usable; call New.
package gf256

import (
	"encoding/binary"
	"fmt"
)

// Poly is the irreducible polynomial generating the field (0x11d).
const Poly = 0x11d

// Order is the number of elements in GF(2^8).
const Order = 256

// generator is a primitive element of the field; 2 is primitive for 0x11d.
const generator = 2

// Field holds the precomputed tables for GF(2^8) arithmetic.
type Field struct {
	exp [2 * Order]byte // exp[i] = generator^i, doubled to avoid mod 255
	log [Order]byte     // log[x] = i such that generator^i = x (log[0] unused)
	mul [Order][Order]byte
	inv [Order]byte

	// nib holds the 8KB split-nibble table set the SIMD kernel consumes,
	// built eagerly at construction; nil means the bulk operations run
	// the scalar row loop.
	nib *nibTabs
}

// defaultField is the shared field instance Default returns.
var defaultField = New()

// New constructs a Field with all lookup tables populated, dispatched
// to the assembly kernel where this CPU and build run it, else to the
// scalar kernel.
func New() *Field {
	return newField(hasAsm)
}

// newField constructs a Field, running the assembly kernel if asm is set.
func newField(asm bool) *Field {
	f := &Field{}
	x := 1
	for i := 0; i < Order-1; i++ {
		f.exp[i] = byte(x)
		f.log[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	// Double the exp table so exp[logA+logB] never needs a modulo.
	for i := Order - 1; i < 2*Order; i++ {
		f.exp[i] = f.exp[i-(Order-1)]
	}
	for a := 0; a < Order; a++ {
		for b := 0; b < Order; b++ {
			f.mul[a][b] = f.slowMul(byte(a), byte(b))
		}
	}
	for a := 1; a < Order; a++ {
		f.inv[a] = f.exp[(Order-1)-int(f.log[a])]
	}
	if asm {
		f.buildNib()
	}
	return f
}

// NewScalar constructs a Field whose bulk slice operations always take
// the byte-at-a-time scalar path, never the SIMD kernel. It exists as
// the reference implementation: differential tests pin the SIMD kernel
// to it, and benchmarks measure speedups against it.
func NewScalar() *Field {
	return newField(false)
}

// slowMul multiplies via log/exp tables; used only to build the full table.
func (f *Field) slowMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[int(f.log[a])+int(f.log[b])]
}

// Add returns a+b in GF(2^8). Addition is XOR; it is its own inverse.
func (f *Field) Add(a, b byte) byte { return a ^ b }

// Mul returns a*b in GF(2^8).
func (f *Field) Mul(a, b byte) byte { return f.mul[a][b] }

// Div returns a/b in GF(2^8). Div panics if b == 0.
func (f *Field) Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	return f.exp[int(f.log[a])+(Order-1)-int(f.log[b])]
}

// Inv returns the multiplicative inverse of a. Inv panics if a == 0.
func (f *Field) Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return f.inv[a]
}

// Log returns the discrete logarithm of a to the generator base.
// Log panics if a == 0, which has no logarithm.
func (f *Field) Log(a byte) int {
	if a == 0 {
		panic("gf256: log of zero")
	}
	return int(f.log[a])
}

// Pow returns a^e in GF(2^8) for e >= 0 (with 0^0 == 1).
func (f *Field) Pow(a byte, e int) byte {
	if e == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	le := (int(f.log[a]) * e) % (Order - 1)
	return f.exp[le]
}

// MulSlice sets dst[i] = c*src[i] for every i. dst and src must have the
// same length (or MulSlice panics).
func (f *Field) MulSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("gf256: MulSlice length mismatch %d != %d", len(src), len(dst)))
	}
	switch c {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
	case 1:
		copy(dst, src)
	default:
		if f.nib != nil {
			n := mulAsm(&f.nib[c], src, dst)
			src, dst = src[n:], dst[n:]
		}
		row := &f.mul[c]
		for i, v := range src {
			dst[i] = row[v]
		}
	}
}

// MulAddSlice sets dst[i] ^= c*src[i] for every i: a fused
// multiply-accumulate, the inner loop of Reed-Solomon encoding.
func (f *Field) MulAddSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("gf256: MulAddSlice length mismatch %d != %d", len(src), len(dst)))
	}
	switch c {
	case 0:
		return
	case 1:
		if f.nib != nil {
			n := xorAsm(src, dst)
			src, dst = src[n:], dst[n:]
			n = xor64(src, dst)
			src, dst = src[n:], dst[n:]
		}
		for i, v := range src {
			dst[i] ^= v
		}
	default:
		if f.nib != nil {
			n := mulAddAsm(&f.nib[c], src, dst)
			src, dst = src[n:], dst[n:]
		}
		row := &f.mul[c]
		// Unroll by 4 to keep the byte loop — SIMD tails and the whole
		// scalar kernel — ALU bound rather than branch bound.
		n := len(src) &^ 3
		for i := 0; i < n; i += 4 {
			dst[i] ^= row[src[i]]
			dst[i+1] ^= row[src[i+1]]
			dst[i+2] ^= row[src[i+2]]
			dst[i+3] ^= row[src[i+3]]
		}
		for i := n; i < len(src); i++ {
			dst[i] ^= row[src[i]]
		}
	}
}

// xor64 sets dst[i] ^= src[i] over the word-aligned prefix, 8 bytes per
// step through uint64 loads and stores, and returns the number of bytes
// processed.
func xor64(src, dst []byte) int {
	processed := len(src) &^ 7
	for len(src) >= 32 && len(dst) >= 32 {
		w0 := binary.LittleEndian.Uint64(dst) ^ binary.LittleEndian.Uint64(src)
		w1 := binary.LittleEndian.Uint64(dst[8:]) ^ binary.LittleEndian.Uint64(src[8:])
		w2 := binary.LittleEndian.Uint64(dst[16:]) ^ binary.LittleEndian.Uint64(src[16:])
		w3 := binary.LittleEndian.Uint64(dst[24:]) ^ binary.LittleEndian.Uint64(src[24:])
		binary.LittleEndian.PutUint64(dst, w0)
		binary.LittleEndian.PutUint64(dst[8:], w1)
		binary.LittleEndian.PutUint64(dst[16:], w2)
		binary.LittleEndian.PutUint64(dst[24:], w3)
		src = src[32:]
		dst = dst[32:]
	}
	for len(src) >= 8 && len(dst) >= 8 {
		binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(dst)^binary.LittleEndian.Uint64(src))
		src = src[8:]
		dst = dst[8:]
	}
	return processed
}

// Default returns the shared default field.
func Default() *Field { return defaultField }
