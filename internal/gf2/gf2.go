// Package gf2 implements bit-packed linear algebra over GF(2).
//
// It backs two parts of the OraP reproduction:
//
//   - Key-sequence synthesis: the final state of the key-register LFSR is a
//     GF(2)-linear function of the injected seed bits, so finding a key
//     sequence that unlocks a given key is a linear solve (orap package).
//   - Attack (d) of the paper: the adversary symbolically simulates the
//     LFSR and implements each cell's linear expression as a XOR tree; the
//     number of terms in each expression (row weight) determines the
//     Trojan's payload size (trojan package).
package gf2

import (
	"fmt"
	"math/bits"
	"strings"
)

// Vec is a bit vector over GF(2). The zero value is an empty vector.
type Vec struct {
	n int
	w []uint64
}

// NewVec returns an all-zero vector of n bits.
func NewVec(n int) Vec {
	return Vec{n: n, w: make([]uint64, (n+63)/64)}
}

// Len returns the number of bits.
func (v Vec) Len() int { return v.n }

// Bit returns bit i.
func (v Vec) Bit(i int) bool {
	return v.w[i/64]>>(uint(i)%64)&1 == 1
}

// SetBit sets bit i to b.
func (v Vec) SetBit(i int, b bool) {
	if b {
		v.w[i/64] |= 1 << (uint(i) % 64)
	} else {
		v.w[i/64] &^= 1 << (uint(i) % 64)
	}
}

// FlipBit toggles bit i.
func (v Vec) FlipBit(i int) { v.w[i/64] ^= 1 << (uint(i) % 64) }

// Clone returns a deep copy of v.
func (v Vec) Clone() Vec {
	return Vec{n: v.n, w: append([]uint64(nil), v.w...)}
}

// Xor adds u into v in place (v ^= u). Vectors must have equal length.
func (v Vec) Xor(u Vec) {
	if v.n != u.n {
		panic(fmt.Sprintf("gf2: Xor length mismatch %d vs %d", v.n, u.n))
	}
	for i := range v.w {
		v.w[i] ^= u.w[i]
	}
}

// IsZero reports whether all bits are zero.
func (v Vec) IsZero() bool {
	for _, w := range v.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// Weight returns the number of set bits (the Hamming weight).
func (v Vec) Weight() int {
	t := 0
	for _, w := range v.w {
		t += bits.OnesCount64(w)
	}
	return t
}

// dot returns the GF(2) inner product of v and u.
func (v Vec) dot(u Vec) bool {
	if v.n != u.n {
		panic(fmt.Sprintf("gf2: Dot length mismatch %d vs %d", v.n, u.n))
	}
	acc := uint64(0)
	for i := range v.w {
		acc ^= v.w[i] & u.w[i]
	}
	return bits.OnesCount64(acc)%2 == 1
}

// Equal reports whether v and u hold the same bits.
func (v Vec) Equal(u Vec) bool {
	if v.n != u.n {
		return false
	}
	for i := range v.w {
		if v.w[i] != u.w[i] {
			return false
		}
	}
	return true
}

// String renders the vector as a bit string, LSB (index 0) first.
func (v Vec) String() string {
	var b strings.Builder
	for i := 0; i < v.n; i++ {
		if v.Bit(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// FromBools packs a boolean slice into a Vec (index 0 ↔ element 0).
func FromBools(bs []bool) Vec {
	v := NewVec(len(bs))
	for i, b := range bs {
		if b {
			v.SetBit(i, true)
		}
	}
	return v
}

// Bools unpacks the vector into a boolean slice.
func (v Vec) Bools() []bool {
	out := make([]bool, v.n)
	for i := range out {
		out[i] = v.Bit(i)
	}
	return out
}

// Matrix is a dense GF(2) matrix stored row-major as bit vectors.
type Matrix struct {
	Rows int
	Cols int
	row  []Vec
}

// NewMatrix returns an all-zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	m := &Matrix{Rows: rows, Cols: cols, row: make([]Vec, rows)}
	for i := range m.row {
		m.row[i] = NewVec(cols)
	}
	return m
}

// Row returns row r; the returned Vec shares storage with the matrix.
func (m *Matrix) Row(r int) Vec { return m.row[r] }

// SetRow replaces row r with a copy of v.
func (m *Matrix) SetRow(r int, v Vec) {
	if v.Len() != m.Cols {
		panic(fmt.Sprintf("gf2: SetRow length %d != cols %d", v.Len(), m.Cols))
	}
	m.row[r] = v.Clone()
}

// clone returns a deep copy of the matrix.
func (m *Matrix) clone() *Matrix {
	n := &Matrix{Rows: m.Rows, Cols: m.Cols, row: make([]Vec, m.Rows)}
	for i := range m.row {
		n.row[i] = m.row[i].Clone()
	}
	return n
}

// MulVec returns m · v (treating v as a column vector of length Cols).
func (m *Matrix) MulVec(v Vec) Vec {
	if v.Len() != m.Cols {
		panic(fmt.Sprintf("gf2: MulVec length %d != cols %d", v.Len(), m.Cols))
	}
	out := NewVec(m.Rows)
	for r := 0; r < m.Rows; r++ {
		if m.row[r].dot(v) {
			out.SetBit(r, true)
		}
	}
	return out
}

// Rank returns the rank of the matrix. The matrix is not modified.
func (m *Matrix) Rank() int {
	e := m.clone()
	rank := 0
	for c := 0; c < e.Cols && rank < e.Rows; c++ {
		pivot := -1
		for r := rank; r < e.Rows; r++ {
			if e.row[r].Bit(c) {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		e.row[rank], e.row[pivot] = e.row[pivot], e.row[rank]
		for r := 0; r < e.Rows; r++ {
			if r != rank && e.row[r].Bit(c) {
				e.row[r].Xor(e.row[rank])
			}
		}
		rank++
	}
	return rank
}

// Solve finds one solution x of m · x = b, or reports that none exists.
// m and b are not modified.
func (m *Matrix) Solve(b Vec) (Vec, bool) {
	if b.Len() != m.Rows {
		panic(fmt.Sprintf("gf2: Solve rhs length %d != rows %d", b.Len(), m.Rows))
	}
	// Augmented elimination: carry the RHS alongside each row.
	e := m.clone()
	rhs := b.Clone()
	pivotCol := make([]int, 0, e.Rows)
	rank := 0
	for c := 0; c < e.Cols && rank < e.Rows; c++ {
		pivot := -1
		for r := rank; r < e.Rows; r++ {
			if e.row[r].Bit(c) {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		e.row[rank], e.row[pivot] = e.row[pivot], e.row[rank]
		pb, rb := rhs.Bit(pivot), rhs.Bit(rank)
		rhs.SetBit(pivot, rb)
		rhs.SetBit(rank, pb)
		for r := 0; r < e.Rows; r++ {
			if r != rank && e.row[r].Bit(c) {
				e.row[r].Xor(e.row[rank])
				rhs.SetBit(r, rhs.Bit(r) != rhs.Bit(rank))
			}
		}
		pivotCol = append(pivotCol, c)
		rank++
	}
	// Inconsistency check: zero rows with non-zero RHS.
	for r := rank; r < e.Rows; r++ {
		if rhs.Bit(r) {
			return Vec{}, false
		}
	}
	x := NewVec(m.Cols)
	for r := 0; r < rank; r++ {
		x.SetBit(pivotCol[r], rhs.Bit(r))
	}
	return x, true
}

// String renders the matrix, one row per line.
func (m *Matrix) String() string {
	var b strings.Builder
	for r := 0; r < m.Rows; r++ {
		b.WriteString(m.row[r].String())
		b.WriteByte('\n')
	}
	return b.String()
}
