package gf256

import (
	"bytes"
	"testing"
)

// FuzzKernels cross-checks every kernel implementation available in
// this process (whichever of ssse3/avx2/neon the CPU and build support)
// against the scalar oracle, on fuzzer-chosen
// coefficients, lengths, and unaligned slice offsets. The fuzzer owns
// the input space exploration; the seeds below just pin the structural
// corners (empty, sub-group, exact SIMD group sizes, odd tails, c=0/1
// special cases).
func FuzzKernels(f *testing.F) {
	f.Add(byte(0), byte(0), []byte{})
	f.Add(byte(1), byte(1), []byte("a"))
	f.Add(byte(2), byte(3), bytes.Repeat([]byte{0xff}, 15))
	f.Add(byte(29), byte(0), bytes.Repeat([]byte{0x1d}, 16))
	f.Add(byte(128), byte(5), bytes.Repeat([]byte{0xa5}, 33))
	f.Add(byte(255), byte(7), bytes.Repeat([]byte{0x80}, 64))
	f.Add(byte(173), byte(13), bytes.Repeat([]byte{0x5a}, 4099))

	scalar := NewScalar()
	fields := make(map[string]*Field) // every kernel, the scalar one included
	for _, name := range Kernels() {
		ff, err := NewWithKernel(name)
		if err != nil {
			f.Fatal(err)
		}
		fields[name] = ff
	}

	f.Fuzz(func(t *testing.T, c byte, off byte, data []byte) {
		// Derive an unaligned view: skip off%16 leading bytes so kernel
		// entry alignment varies independently of content.
		skip := int(off) % 16
		if skip > len(data) {
			skip = len(data)
		}
		src := data[skip:]
		dstInit := make([]byte, len(src))
		for i := range dstInit {
			dstInit[i] = byte(i*7 + 3)
		}

		wantAdd := append([]byte(nil), dstInit...)
		scalar.MulAddSlice(c, src, wantAdd)
		wantMul := make([]byte, len(src))
		scalar.MulSlice(c, src, wantMul)

		for name, ff := range fields {
			gotAdd := append([]byte(nil), dstInit...)
			ff.MulAddSlice(c, src, gotAdd)
			if !bytes.Equal(gotAdd, wantAdd) {
				t.Fatalf("%s MulAddSlice(c=%d, len=%d, skip=%d) diverges from scalar", name, c, len(src), skip)
			}
			gotMul := append([]byte(nil), dstInit...)
			ff.MulSlice(c, src, gotMul)
			if !bytes.Equal(gotMul, wantMul) {
				t.Fatalf("%s MulSlice(c=%d, len=%d, skip=%d) diverges from scalar", name, c, len(src), skip)
			}
		}

		// Coefficient 1 runs the xor kernel; the reference is plain XOR.
		wantXor := append([]byte(nil), dstInit...)
		for i := range wantXor {
			wantXor[i] ^= src[i]
		}
		for name, ff := range fields {
			gotXor := append([]byte(nil), dstInit...)
			ff.MulAddSlice(1, src, gotXor)
			if !bytes.Equal(gotXor, wantXor) {
				t.Fatalf("%s MulAddSlice(c=1, len=%d, skip=%d) diverges from XOR reference", name, len(src), skip)
			}
		}
	})
}
