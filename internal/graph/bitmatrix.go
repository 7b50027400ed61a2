package graph

import (
	"fmt"
	"math/bits"
)

// BitMatrix is a dense rows×cols bit matrix stored row-major in 64-bit
// words. It backs the adjacency matrix A of the paper and is also reused by
// the examples (e.g. bitmap images). The zero value is an empty 0×0 matrix.
type BitMatrix struct {
	rows, cols int
	stride     int // words per row
	words      []uint64
}

// NewBitMatrix returns a rows×cols matrix of zeros.
func NewBitMatrix(rows, cols int) BitMatrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("graph: negative bit-matrix dimensions %d×%d", rows, cols))
	}
	stride := (cols + 63) / 64
	return BitMatrix{rows: rows, cols: cols, stride: stride, words: make([]uint64, rows*stride)}
}

// Rows returns the number of rows.
func (m *BitMatrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *BitMatrix) Cols() int { return m.cols }

// Get returns the bit at (r, c).
func (m *BitMatrix) Get(r, c int) bool {
	m.checkIndex(r, c)
	return m.words[r*m.stride+c/64]&(1<<uint(c%64)) != 0
}

// Set assigns the bit at (r, c).
func (m *BitMatrix) Set(r, c int, v bool) {
	m.checkIndex(r, c)
	w := &m.words[r*m.stride+c/64]
	mask := uint64(1) << uint(c%64)
	if v {
		*w |= mask
	} else {
		*w &^= mask
	}
}

// RowOnes returns the number of set bits in row r.
func (m *BitMatrix) RowOnes(r int) int {
	m.checkRow(r)
	n := 0
	for _, w := range m.words[r*m.stride : (r+1)*m.stride] {
		n += bits.OnesCount64(w)
	}
	return n
}

// Ones returns the total number of set bits.
func (m *BitMatrix) Ones() int {
	n := 0
	for _, w := range m.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// RowIndices appends the column indices of the set bits in row r to dst, in
// increasing order, and returns the extended slice.
func (m *BitMatrix) RowIndices(r int, dst []int) []int {
	m.checkRow(r)
	base := r * m.stride
	for wi := 0; wi < m.stride; wi++ {
		w := m.words[base+wi]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, wi*64+b)
			w &= w - 1
		}
	}
	return dst
}

// Clone returns a deep copy.
func (m *BitMatrix) Clone() BitMatrix {
	cp := *m
	cp.words = append([]uint64(nil), m.words...)
	return cp
}

// Equal reports whether two matrices have identical dimensions and bits.
func (m *BitMatrix) Equal(o *BitMatrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i, w := range m.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// OrRowInto ORs row src into row dst word-parallel — the inner operation
// of the word-parallel Warshall transitive closure.
func (m *BitMatrix) OrRowInto(dst, src int) {
	m.checkRow(dst)
	m.checkRow(src)
	d := m.words[dst*m.stride : (dst+1)*m.stride]
	s := m.words[src*m.stride : (src+1)*m.stride]
	for i := range d {
		d[i] |= s[i]
	}
}

func (m *BitMatrix) checkIndex(r, c int) {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		panic(fmt.Sprintf("graph: bit-matrix index (%d,%d) out of range %d×%d", r, c, m.rows, m.cols))
	}
}

func (m *BitMatrix) checkRow(r int) {
	if r < 0 || r >= m.rows {
		panic(fmt.Sprintf("graph: bit-matrix row %d out of range %d", r, m.rows))
	}
}
