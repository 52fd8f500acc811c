package gf256

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddIsXORAndSelfInverse(t *testing.T) {
	f := New()
	for a := 0; a < Order; a++ {
		for b := 0; b < Order; b++ {
			s := f.Add(byte(a), byte(b))
			if s != byte(a)^byte(b) {
				t.Fatalf("Add(%d,%d) = %d, want %d", a, b, s, byte(a)^byte(b))
			}
			if f.Add(s, byte(b)) != byte(a) {
				t.Fatalf("Add not self-inverse at (%d,%d)", a, b)
			}
		}
	}
}

func TestMulIdentityAndZero(t *testing.T) {
	f := New()
	for a := 0; a < Order; a++ {
		if got := f.Mul(byte(a), 1); got != byte(a) {
			t.Fatalf("a*1 = %d, want %d", got, a)
		}
		if got := f.Mul(byte(a), 0); got != 0 {
			t.Fatalf("a*0 = %d, want 0", got)
		}
	}
}

func TestMulCommutativeAssociative(t *testing.T) {
	f := New()
	err := quick.Check(func(a, b, c byte) bool {
		if f.Mul(a, b) != f.Mul(b, a) {
			return false
		}
		return f.Mul(f.Mul(a, b), c) == f.Mul(a, f.Mul(b, c))
	}, &quick.Config{MaxCount: 5000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistributiveLaw(t *testing.T) {
	f := New()
	err := quick.Check(func(a, b, c byte) bool {
		return f.Mul(a, f.Add(b, c)) == f.Add(f.Mul(a, b), f.Mul(a, c))
	}, &quick.Config{MaxCount: 5000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInverse(t *testing.T) {
	f := New()
	for a := 1; a < Order; a++ {
		inv := f.Inv(byte(a))
		if f.Mul(byte(a), inv) != 1 {
			t.Fatalf("a * Inv(a) != 1 for a=%d (inv=%d)", a, inv)
		}
	}
}

func TestInvOfZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	New().Inv(0)
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div(x,0) did not panic")
		}
	}()
	New().Div(5, 0)
}

func TestDivMatchesMulByInverse(t *testing.T) {
	f := New()
	for a := 0; a < Order; a++ {
		for b := 1; b < Order; b++ {
			if f.Div(byte(a), byte(b)) != f.Mul(byte(a), f.Inv(byte(b))) {
				t.Fatalf("Div mismatch at (%d,%d)", a, b)
			}
		}
	}
}

func TestLogExpRoundTrip(t *testing.T) {
	f := New()
	for a := 1; a < Order; a++ {
		if f.Exp(f.Log(byte(a))) != byte(a) {
			t.Fatalf("Exp(Log(%d)) != %d", a, a)
		}
	}
	for e := 0; e < Order-1; e++ {
		if f.Log(f.Exp(e)) != e {
			t.Fatalf("Log(Exp(%d)) != %d", e, e)
		}
	}
}

func TestExpNegativeAndWrap(t *testing.T) {
	f := New()
	if f.Exp(0) != 1 {
		t.Fatalf("Exp(0) = %d, want 1", f.Exp(0))
	}
	if f.Exp(255) != f.Exp(0) {
		t.Fatalf("Exp(255) should wrap to Exp(0)")
	}
	if f.Exp(-1) != f.Exp(254) {
		t.Fatalf("Exp(-1) should equal Exp(254)")
	}
}

func TestPow(t *testing.T) {
	f := New()
	err := quick.Check(func(a byte, eRaw uint8) bool {
		e := int(eRaw % 16)
		want := byte(1)
		for i := 0; i < e; i++ {
			want = f.Mul(want, a)
		}
		return f.Pow(a, e) == want
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPowZeroCases(t *testing.T) {
	f := New()
	if f.Pow(0, 0) != 1 {
		t.Fatalf("0^0 should be 1 by convention")
	}
	if f.Pow(0, 5) != 0 {
		t.Fatalf("0^5 should be 0")
	}
}

func TestGeneratorIsPrimitive(t *testing.T) {
	// generator^i for i in [0,255) must enumerate all 255 nonzero elements.
	f := New()
	seen := make(map[byte]bool)
	for i := 0; i < Order-1; i++ {
		seen[f.Exp(i)] = true
	}
	if len(seen) != Order-1 {
		t.Fatalf("generator cycle covers %d elements, want 255", len(seen))
	}
}

func TestMulSlice(t *testing.T) {
	f := New()
	src := []byte{0, 1, 2, 3, 250, 251, 252, 253, 254, 255}
	for _, c := range []byte{0, 1, 2, 37, 255} {
		dst := make([]byte, len(src))
		f.MulSlice(c, src, dst)
		for i := range src {
			if dst[i] != f.Mul(c, src[i]) {
				t.Fatalf("MulSlice c=%d mismatch at %d", c, i)
			}
		}
	}
}

func TestMulAddSlice(t *testing.T) {
	f := New()
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 1027) // odd size exercises the unroll tail
	dst := make([]byte, 1027)
	rng.Read(src)
	rng.Read(dst)
	for _, c := range []byte{0, 1, 2, 91, 255} {
		want := make([]byte, len(dst))
		for i := range dst {
			want[i] = dst[i] ^ f.Mul(c, src[i])
		}
		got := append([]byte(nil), dst...)
		f.MulAddSlice(c, src, got)
		if !bytes.Equal(got, want) {
			t.Fatalf("MulAddSlice c=%d mismatch", c)
		}
	}
}

// TestAddSlice: slice addition is MulAddSlice with coefficient 1.
func TestAddSlice(t *testing.T) {
	src := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	dst := []byte{11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	want := make([]byte, len(src))
	for i := range src {
		want[i] = src[i] ^ dst[i]
	}
	New().MulAddSlice(1, src, dst)
	if !bytes.Equal(dst, want) {
		t.Fatalf("MulAddSlice(1) mismatch: got %v want %v", dst, want)
	}
}

func TestSliceOpsLengthMismatchPanics(t *testing.T) {
	f := New()
	cases := []func(){
		func() { f.MulSlice(2, make([]byte, 3), make([]byte, 4)) },
		func() { f.MulAddSlice(2, make([]byte, 3), make([]byte, 4)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkMulAddSlice(b *testing.B) {
	f := New()
	src := make([]byte, 8192)
	dst := make([]byte, 8192)
	rand.New(rand.NewSource(2)).Read(src)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MulAddSlice(173, src, dst)
	}
}

// BenchmarkMulAddSliceXor measures slice addition: coefficient 1 runs
// the xor kernel.
func BenchmarkMulAddSliceXor(b *testing.B) {
	f := New()
	src := make([]byte, 8192)
	dst := make([]byte, 8192)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MulAddSlice(1, src, dst)
	}
}

// Exp returns generator^e for e >= 0.
func (f *Field) Exp(e int) byte {
	e %= Order - 1
	if e < 0 {
		e += Order - 1
	}
	return f.exp[e]
}
