package reedsolomon

import (
	"math/rand"
	"testing"
)

func TestIdentityMatrix(t *testing.T) {
	id := Identity(4)
	if !id.IsIdentity() {
		t.Fatal("Identity(4) is not identity")
	}
	if id.Rows() != 4 || id.Cols() != 4 {
		t.Fatal("Identity(4) wrong dims")
	}
}

func TestVandermondeShape(t *testing.T) {
	v := Vandermonde(6, 3)
	if v.Rows() != 6 || v.Cols() != 3 {
		t.Fatalf("got %dx%d, want 6x3", v.Rows(), v.Cols())
	}
	// First column is all ones (r^0), row 0 is 1,0,0 (0^0=1, 0^c=0).
	for r := 0; r < 6; r++ {
		if v.At(r, 0) != 1 {
			t.Fatalf("V[%d][0] = %d, want 1", r, v.At(r, 0))
		}
	}
	if v.At(0, 1) != 0 || v.At(0, 2) != 0 {
		t.Fatal("row 0 should be [1 0 0]")
	}
	if v.At(1, 1) != 1 || v.At(1, 2) != 1 {
		t.Fatal("row 1 should be [1 1 1]")
	}
}

func TestMatrixMulByIdentity(t *testing.T) {
	m := Vandermonde(5, 5)
	got := m.Mul(Identity(5))
	for r := 0; r < 5; r++ {
		for c := 0; c < 5; c++ {
			if got.At(r, c) != m.At(r, c) {
				t.Fatalf("M*I != M at (%d,%d)", r, c)
			}
		}
	}
}

func TestInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		m := NewMatrix(n, n)
		for {
			for i := range m.data {
				m.data[i] = byte(rng.Intn(256))
			}
			if _, err := m.Invert(); err == nil {
				break
			}
		}
		inv, err := m.Invert()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !m.Mul(inv).IsIdentity() {
			t.Fatalf("trial %d: M * M^-1 != I", trial)
		}
		if !inv.Mul(m).IsIdentity() {
			t.Fatalf("trial %d: M^-1 * M != I", trial)
		}
	}
}

func TestInvertSingular(t *testing.T) {
	m := NewMatrix(3, 3)
	// Two identical rows -> singular.
	for c := 0; c < 3; c++ {
		m.Set(0, c, byte(c+1))
		m.Set(1, c, byte(c+1))
		m.Set(2, c, byte(2*c+5))
	}
	if _, err := m.Invert(); err != ErrSingular {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestInvertNonSquare(t *testing.T) {
	m := NewMatrix(2, 3)
	if _, err := m.Invert(); err == nil {
		t.Fatal("inverting non-square matrix should fail")
	}
}

func TestPickRowsAndSubMatrix(t *testing.T) {
	v := Vandermonde(6, 3)
	p := v.PickRows([]int{5, 0, 2})
	if p.Rows() != 3 {
		t.Fatal("PickRows wrong row count")
	}
	for c := 0; c < 3; c++ {
		if p.At(0, c) != v.At(5, c) || p.At(1, c) != v.At(0, c) || p.At(2, c) != v.At(2, c) {
			t.Fatal("PickRows copied wrong data")
		}
	}
	s := v.SubMatrix(1, 4, 1, 3)
	if s.Rows() != 3 || s.Cols() != 2 {
		t.Fatal("SubMatrix wrong dims")
	}
	if s.At(0, 0) != v.At(1, 1) || s.At(2, 1) != v.At(3, 2) {
		t.Fatal("SubMatrix copied wrong data")
	}
}

func TestSwapRows(t *testing.T) {
	m := Vandermonde(3, 3)
	r0 := append([]byte(nil), m.Row(0)...)
	r2 := append([]byte(nil), m.Row(2)...)
	m.SwapRows(0, 2)
	for c := 0; c < 3; c++ {
		if m.At(0, c) != r2[c] || m.At(2, c) != r0[c] {
			t.Fatal("SwapRows mismatch")
		}
	}
	m.SwapRows(1, 1) // no-op must not corrupt
	if m.At(1, 1) != Vandermonde(3, 3).At(1, 1) {
		t.Fatal("self-swap corrupted row")
	}
}

func TestAnyKRowsOfSystematicMatrixInvertible(t *testing.T) {
	// The core property backing k-of-n reconstruction.
	c, err := New(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	enc := c.enc
	idx := []int{0, 1, 2, 3}
	var rec func(start, depth int)
	count := 0
	rec = func(start, depth int) {
		if depth == 4 {
			sub := enc.PickRows(idx)
			if _, err := sub.Invert(); err != nil {
				t.Fatalf("rows %v not invertible: %v", idx, err)
			}
			count++
			return
		}
		for i := start; i < 8; i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	if count != 70 { // C(8,4)
		t.Fatalf("checked %d combinations, want 70", count)
	}
}
