// Package reedsolomon implements systematic (n, k) Reed-Solomon erasure
// coding over GF(2^8), the fault-tolerance substrate of CAONT-RS and of the
// baseline secret-sharing algorithms (IDA, RSSS, SSMS, AONT-RS).
//
// The encoding matrix is a Vandermonde matrix transformed so that its top
// k x k block is the identity: the first k output shards equal the input
// data shards (a systematic code, as required by the paper, §2), and any k
// of the n shards reconstruct the data by inverting the corresponding k
// rows.
package reedsolomon

import (
	"errors"
	"fmt"

	"cdstore/internal/gf256"
)

// Matrix is a dense byte matrix over GF(2^8), stored row-major.
type Matrix struct {
	rows, cols int
	data       []byte
}

// NewMatrix returns a zero rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("reedsolomon: invalid matrix dims %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) byte { return m.data[r*m.cols+c] }

// Set assigns the element at (r, c).
func (m *Matrix) Set(r, c int, v byte) { m.data[r*m.cols+c] = v }

// Row returns row r as a slice aliasing the matrix storage.
func (m *Matrix) Row(r int) []byte { return m.data[r*m.cols : (r+1)*m.cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Vandermonde returns the rows x cols matrix with entry (r, c) = r^c
// evaluated in GF(2^8). Any k rows of a Vandermonde matrix with distinct
// evaluation points are linearly independent, the property that makes any
// k-of-n reconstruction possible.
func Vandermonde(rows, cols int) *Matrix {
	f := gf256.Default()
	m := NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.Set(r, c, f.Pow(byte(r), c))
		}
	}
	return m
}

// Mul returns the matrix product m * other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.cols != other.rows {
		panic(fmt.Sprintf("reedsolomon: cannot multiply %dx%d by %dx%d", m.rows, m.cols, other.rows, other.cols))
	}
	f := gf256.Default()
	out := NewMatrix(m.rows, other.cols)
	for r := 0; r < m.rows; r++ {
		mrow := m.Row(r)
		orow := out.Row(r)
		for i, a := range mrow {
			if a == 0 {
				continue
			}
			f.MulAddSlice(a, other.Row(i), orow)
		}
	}
	return out
}

// SubMatrix returns the matrix slice of rows [r0,r1) and columns [c0,c1).
func (m *Matrix) SubMatrix(r0, r1, c0, c1 int) *Matrix {
	out := NewMatrix(r1-r0, c1-c0)
	for r := r0; r < r1; r++ {
		copy(out.Row(r-r0), m.Row(r)[c0:c1])
	}
	return out
}

// PickRows returns a new matrix made of the given rows of m, in order.
func (m *Matrix) PickRows(rows []int) *Matrix {
	out := NewMatrix(len(rows), m.cols)
	for i, r := range rows {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// SwapRows exchanges rows i and j in place.
func (m *Matrix) SwapRows(i, j int) {
	if i == j {
		return
	}
	ri, rj := m.Row(i), m.Row(j)
	for c := range ri {
		ri[c], rj[c] = rj[c], ri[c]
	}
}

// ErrSingular is returned when a matrix that must be invertible is not.
var ErrSingular = errors.New("reedsolomon: matrix is singular")

// Invert returns the inverse of square matrix m using Gauss-Jordan
// elimination over GF(2^8), or ErrSingular.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("reedsolomon: cannot invert %dx%d non-square matrix", m.rows, m.cols)
	}
	f := gf256.Default()
	n := m.rows
	work := m.Clone()
	out := Identity(n)
	for col := 0; col < n; col++ {
		// Find pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if work.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, ErrSingular
		}
		work.SwapRows(col, pivot)
		out.SwapRows(col, pivot)
		// Scale pivot row to make the pivot 1.
		if pv := work.At(col, col); pv != 1 {
			inv := f.Inv(pv)
			f.MulSlice(inv, work.Row(col), work.Row(col))
			f.MulSlice(inv, out.Row(col), out.Row(col))
		}
		// Eliminate the column from all other rows.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			if c := work.At(r, col); c != 0 {
				f.MulAddSlice(c, work.Row(col), work.Row(r))
				f.MulAddSlice(c, out.Row(col), out.Row(r))
			}
		}
	}
	return out, nil
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := ""
	for r := 0; r < m.rows; r++ {
		s += fmt.Sprintf("%v\n", m.Row(r))
	}
	return s
}
