package bench

import (
	"fmt"
	"slices"

	"cdstore/internal/gf256"
	"cdstore/internal/reedsolomon"
)

// cauchy returns the rows x cols Cauchy matrix with entry
// (r, c) = 1 / (x_r + y_c) where x_r = r and y_c = rows + c. Points are
// distinct as long as rows+cols <= 256, so every denominator is nonzero.
//
// Cauchy matrices have the property that *every* square submatrix is
// nonsingular. The ramp secret-sharing scheme (RSSS) relies on this: it
// guarantees both that any k shares reconstruct the input pieces and that
// any r shares reveal nothing about the secret pieces when r of the input
// pieces are uniformly random (Blakley-Meadows security of ramp schemes).
func cauchy(rows, cols int) *reedsolomon.Matrix {
	if rows+cols > 256 {
		panic(fmt.Sprintf("bench: Cauchy needs rows+cols <= 256, got %d+%d", rows, cols))
	}
	f := gf256.Default()
	m := reedsolomon.NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.Set(r, c, f.Inv(byte(r)^byte(rows+c)))
		}
	}
	return m
}

// nonSystematicCodec encodes k input pieces into n output shares with a
// dense (every coefficient nonzero) Cauchy matrix: no output share equals
// any input piece in the clear, which is what RSSS needs (a systematic
// code would emit r of the secret pieces verbatim).
type nonSystematicCodec struct {
	n, k  int
	mat   *reedsolomon.Matrix
	field *gf256.Field
}

// newNonSystematic constructs an (n, k) non-systematic Cauchy codec.
func newNonSystematic(n, k int) (*nonSystematicCodec, error) {
	if k <= 0 || n <= k || n+k > 256 {
		return nil, fmt.Errorf("%w (got n=%d k=%d)", reedsolomon.ErrInvalidParams, n, k)
	}
	return &nonSystematicCodec{n: n, k: k, mat: cauchy(n, k), field: gf256.Default()}, nil
}

// Encode multiplies the k equal-size input pieces by the generator,
// producing n shares of the same size.
func (c *nonSystematicCodec) Encode(pieces [][]byte) ([][]byte, error) {
	if len(pieces) != c.k {
		return nil, fmt.Errorf("bench: need %d pieces, got %d", c.k, len(pieces))
	}
	size := len(pieces[0])
	if size == 0 {
		return nil, reedsolomon.ErrShardSize
	}
	for _, p := range pieces {
		if len(p) != size {
			return nil, reedsolomon.ErrShardSize
		}
	}
	shares := make([][]byte, c.n)
	for r := 0; r < c.n; r++ {
		out := make([]byte, size)
		row := c.mat.Row(r)
		for i := 0; i < c.k; i++ {
			c.field.MulAddSlice(row[i], pieces[i], out)
		}
		shares[r] = out
	}
	return shares, nil
}

// Decode recovers the k input pieces from any k shares (index -> content).
func (c *nonSystematicCodec) Decode(have map[int][]byte) ([][]byte, error) {
	idxs := make([]int, 0, len(have))
	for i := range have {
		if i < 0 || i >= c.n {
			return nil, fmt.Errorf("%w: %d", reedsolomon.ErrInvalidShardNum, i)
		}
		idxs = append(idxs, i)
	}
	if len(idxs) < c.k {
		return nil, reedsolomon.ErrTooFewShards
	}
	slices.Sort(idxs)
	idxs = idxs[:c.k]
	size := -1
	for _, i := range idxs {
		if size == -1 {
			size = len(have[i])
		}
		if len(have[i]) != size || size == 0 {
			return nil, reedsolomon.ErrShardSize
		}
	}
	inv, err := c.mat.PickRows(idxs).Invert()
	if err != nil {
		return nil, err
	}
	pieces := make([][]byte, c.k)
	for r := 0; r < c.k; r++ {
		out := make([]byte, size)
		row := inv.Row(r)
		for i, idx := range idxs {
			c.field.MulAddSlice(row[i], have[idx], out)
		}
		pieces[r] = out
	}
	return pieces, nil
}
