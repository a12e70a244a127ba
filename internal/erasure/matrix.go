// Package erasure implements systematic Reed-Solomon erasure codes over
// GF(2^8) as used by the ECFS cluster file system.
//
// A Code with parameters (K, M) turns K data blocks into M parity blocks
// via matrix multiplication over the Galois field (Equation 1 of the TSUE
// paper). Any M lost blocks — data or parity — can be rebuilt from the K
// survivors by inverting the corresponding rows of the encoding matrix.
//
// Beyond whole-stripe encode/decode the package provides the incremental
// update primitives every update strategy in the paper relies on:
//
//   - ParityDelta:  parity_delta = coeff * data_delta          (Eq. 2)
//   - EncodeTo:     encoding is linear, so the data deltas of several
//     blocks of one stripe encode to all M merged parity deltas (Eq. 5)
//
// Folding repeated deltas of one address (Eq. 3–4) is a plain XOR
// (gf256.XorSlice).
package erasure

import (
	"fmt"

	"repro/internal/gf256"
)

// Matrix is a dense byte matrix over GF(2^8), row-major.
type Matrix struct {
	Rows, Cols int
	Data       []byte
}

// NewMatrix allocates a zero matrix of the given shape.
func NewMatrix(rows, cols int) Matrix {
	if rows <= 0 || cols <= 0 {
		panic("erasure: non-positive matrix dimensions")
	}
	return Matrix{Rows: rows, Cols: cols, Data: make([]byte, rows*cols)}
}

// At returns the element at (r, c).
func (m Matrix) At(r, c int) byte { return m.Data[r*m.Cols+c] }

// Set assigns the element at (r, c).
func (m Matrix) Set(r, c int, v byte) { m.Data[r*m.Cols+c] = v }

// Row returns a view of row r.
func (m Matrix) Row(r int) []byte { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m Matrix) Clone() Matrix {
	n := Matrix{Rows: m.Rows, Cols: m.Cols, Data: make([]byte, len(m.Data))}
	copy(n.Data, m.Data)
	return n
}

// Mul returns the matrix product m * other.
func (m Matrix) Mul(other Matrix) Matrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("erasure: shape mismatch %dx%d * %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := NewMatrix(m.Rows, other.Cols)
	for r := 0; r < m.Rows; r++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(r, k)
			if a == 0 {
				continue
			}
			orow := other.Row(k)
			drow := out.Row(r)
			for c, v := range orow {
				drow[c] ^= gf256.Mul(a, v)
			}
		}
	}
	return out
}

// Identity returns the n x n identity matrix.
func Identity(n int) Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// IsIdentity reports whether m is a square identity matrix.
func (m Matrix) IsIdentity() bool {
	if m.Rows != m.Cols {
		return false
	}
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			want := byte(0)
			if r == c {
				want = 1
			}
			if m.At(r, c) != want {
				return false
			}
		}
	}
	return true
}

// Invert returns the inverse of a square matrix using Gauss-Jordan
// elimination over GF(2^8). It returns an error if m is singular.
func (m Matrix) Invert() (Matrix, error) {
	if m.Rows != m.Cols {
		return Matrix{}, fmt.Errorf("erasure: cannot invert %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	work := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Find a pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if work.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return Matrix{}, fmt.Errorf("erasure: singular matrix (column %d)", col)
		}
		if pivot != col {
			swapRows(work, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Scale the pivot row to 1.
		if p := work.At(col, col); p != 1 {
			ip := gf256.Inv(p)
			scaleRow(work.Row(col), ip)
			scaleRow(inv.Row(col), ip)
		}
		// Eliminate the column from all other rows.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := work.At(r, col)
			if f == 0 {
				continue
			}
			gf256.MulAddSlice(f, work.Row(r), work.Row(col))
			gf256.MulAddSlice(f, inv.Row(r), inv.Row(col))
		}
	}
	return inv, nil
}

func swapRows(m Matrix, a, b int) {
	ra, rb := m.Row(a), m.Row(b)
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

func scaleRow(row []byte, c byte) {
	for i := range row {
		row[i] = gf256.Mul(row[i], c)
	}
}

// SubMatrix returns the matrix formed by the given rows of m.
func (m Matrix) SubMatrix(rows []int) Matrix {
	out := NewMatrix(len(rows), m.Cols)
	for i, r := range rows {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// vandermonde builds the (k+m) x k systematic encoding matrix: the top k
// rows are the identity; the bottom m rows are derived from a Vandermonde
// matrix so that every square submatrix formed by any k rows is invertible.
func vandermonde(k, m int) (Matrix, error) {
	n := k + m
	// Raw Vandermonde: row r is [1, r, r^2, ...] over GF(2^8).
	raw := NewMatrix(n, k)
	for r := 0; r < n; r++ {
		for c := 0; c < k; c++ {
			raw.Set(r, c, gf256.Pow(byte(r), c))
		}
	}
	// Systematize: multiply by the inverse of the top k x k block so the
	// data rows become the identity while preserving the MDS property.
	top := raw.SubMatrix(seq(0, k))
	topInv, err := top.Invert()
	if err != nil {
		return Matrix{}, fmt.Errorf("erasure: vandermonde top block singular: %w", err)
	}
	return raw.Mul(topInv), nil
}

// cauchy builds the (k+m) x k systematic encoding matrix whose parity rows
// form a Cauchy matrix: row i, column j holds 1/(x_i + y_j) with distinct
// x_i = k+i and y_j = j. Cauchy matrices are MDS by construction.
func cauchy(k, m int) (Matrix, error) {
	if k+m > 256 {
		return Matrix{}, fmt.Errorf("erasure: k+m = %d exceeds GF(2^8) capacity", k+m)
	}
	enc := NewMatrix(k+m, k)
	for i := 0; i < k; i++ {
		enc.Set(i, i, 1)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			enc.Set(k+i, j, gf256.Inv(byte(k+i)^byte(j)))
		}
	}
	return enc, nil
}

func seq(from, to int) []int {
	s := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		s = append(s, i)
	}
	return s
}
