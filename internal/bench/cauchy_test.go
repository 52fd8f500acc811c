package bench

import (
	"bytes"
	"math/rand"
	"testing"

	"cdstore/internal/reedsolomon"
)

func TestCauchyEverySquareSubmatrixInvertible(t *testing.T) {
	m := cauchy(6, 4)
	// All 2x2 submatrices.
	for r0 := 0; r0 < 6; r0++ {
		for r1 := r0 + 1; r1 < 6; r1++ {
			for c0 := 0; c0 < 4; c0++ {
				for c1 := c0 + 1; c1 < 4; c1++ {
					sub := reedsolomon.NewMatrix(2, 2)
					sub.Set(0, 0, m.At(r0, c0))
					sub.Set(0, 1, m.At(r0, c1))
					sub.Set(1, 0, m.At(r1, c0))
					sub.Set(1, 1, m.At(r1, c1))
					if _, err := sub.Invert(); err != nil {
						t.Fatalf("2x2 submatrix (%d,%d)x(%d,%d) singular", r0, r1, c0, c1)
					}
				}
			}
		}
	}
	// All 4x4 row selections.
	idx := []int{0, 0, 0, 0}
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == 4 {
			if _, err := m.PickRows(idx).Invert(); err != nil {
				t.Fatalf("rows %v singular", idx)
			}
			return
		}
		for i := start; i < 6; i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}

func TestCauchyAllEntriesNonzero(t *testing.T) {
	m := cauchy(8, 6)
	for r := 0; r < 8; r++ {
		for c := 0; c < 6; c++ {
			if m.At(r, c) == 0 {
				t.Fatalf("Cauchy entry (%d,%d) is zero", r, c)
			}
		}
	}
}

func TestCauchyPanicsOnTooManyPoints(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Cauchy(200,100) should panic")
		}
	}()
	cauchy(200, 100)
}

func TestNonSystematicRoundTrip(t *testing.T) {
	c, err := newNonSystematic(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	pieces := make([][]byte, 3)
	for i := range pieces {
		pieces[i] = make([]byte, 100)
		rng.Read(pieces[i])
	}
	shares, err := c.Encode(pieces)
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != 5 {
		t.Fatalf("got %d shares, want 5", len(shares))
	}
	// No share may equal an input piece verbatim (non-systematic property).
	for i, s := range shares {
		for j, p := range pieces {
			if bytes.Equal(s, p) {
				t.Fatalf("share %d equals piece %d: code leaked a piece", i, j)
			}
		}
	}
	// Every 3-subset decodes.
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			for cc := b + 1; cc < 5; cc++ {
				have := map[int][]byte{a: shares[a], b: shares[b], cc: shares[cc]}
				got, err := c.Decode(have)
				if err != nil {
					t.Fatalf("subset {%d,%d,%d}: %v", a, b, cc, err)
				}
				for i := range pieces {
					if !bytes.Equal(got[i], pieces[i]) {
						t.Fatalf("subset {%d,%d,%d}: piece %d mismatch", a, b, cc, i)
					}
				}
			}
		}
	}
}

func TestNonSystematicErrors(t *testing.T) {
	if _, err := newNonSystematic(3, 3); err == nil {
		t.Fatal("n == k should fail")
	}
	if _, err := newNonSystematic(200, 100); err == nil {
		t.Fatal("n+k > 256 should fail")
	}
	c, _ := newNonSystematic(4, 2)
	if _, err := c.Encode([][]byte{{1}}); err == nil {
		t.Fatal("wrong piece count should fail")
	}
	if _, err := c.Encode([][]byte{{1}, {2, 3}}); err != reedsolomon.ErrShardSize {
		t.Fatalf("want ErrShardSize, got %v", err)
	}
	if _, err := c.Decode(map[int][]byte{0: {1}}); err != reedsolomon.ErrTooFewShards {
		t.Fatalf("want ErrTooFewShards, got %v", err)
	}
	if _, err := c.Decode(map[int][]byte{0: {1}, 7: {2}}); err == nil {
		t.Fatal("bad index should fail")
	}
	if _, err := c.Decode(map[int][]byte{0: {1}, 1: {2, 3}}); err != reedsolomon.ErrShardSize {
		t.Fatalf("want ErrShardSize, got %v", err)
	}
}
