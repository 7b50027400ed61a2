package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitMatrixSetGet(t *testing.T) {
	m := NewBitMatrix(3, 130) // spans three words per row
	m.Set(1, 0, true)
	m.Set(1, 63, true)
	m.Set(1, 64, true)
	m.Set(1, 129, true)
	for _, c := range []int{0, 63, 64, 129} {
		if !m.Get(1, c) {
			t.Errorf("Get(1,%d) = false, want true", c)
		}
	}
	if m.Get(0, 0) || m.Get(2, 129) {
		t.Error("unset bits read as set")
	}
	m.Set(1, 64, false)
	if m.Get(1, 64) {
		t.Error("cleared bit still set")
	}
}

func TestBitMatrixRowOnes(t *testing.T) {
	m := NewBitMatrix(2, 100)
	for c := 0; c < 100; c += 3 {
		m.Set(0, c, true)
	}
	if got, want := m.RowOnes(0), 34; got != want {
		t.Errorf("RowOnes(0) = %d, want %d", got, want)
	}
	if m.RowOnes(1) != 0 {
		t.Errorf("RowOnes(1) = %d, want 0", m.RowOnes(1))
	}
	if got, want := m.Ones(), 34; got != want {
		t.Errorf("Ones() = %d, want %d", got, want)
	}
}

func TestBitMatrixRowIndices(t *testing.T) {
	m := NewBitMatrix(1, 200)
	want := []int{0, 1, 63, 64, 65, 127, 128, 199}
	for _, c := range want {
		m.Set(0, c, true)
	}
	got := m.RowIndices(0, nil)
	if len(got) != len(want) {
		t.Fatalf("RowIndices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RowIndices = %v, want %v", got, want)
		}
	}
}

func TestBitMatrixRowIndicesAppends(t *testing.T) {
	m := NewBitMatrix(1, 10)
	m.Set(0, 4, true)
	dst := []int{99}
	got := m.RowIndices(0, dst)
	if len(got) != 2 || got[0] != 99 || got[1] != 4 {
		t.Fatalf("RowIndices append = %v, want [99 4]", got)
	}
}

// isSymmetric reports whether m is square and equal to its transpose,
// the well-formedness condition of an undirected adjacency matrix.
func isSymmetric(m *BitMatrix) bool {
	if m.Rows() != m.Cols() {
		return false
	}
	var idx []int
	for r := 0; r < m.Rows(); r++ {
		idx = m.RowIndices(r, idx[:0])
		for _, c := range idx {
			if !m.Get(c, r) {
				return false
			}
		}
	}
	return true
}

func TestBitMatrixIsSymmetric(t *testing.T) {
	m := NewBitMatrix(4, 4)
	m.Set(1, 2, true)
	if isSymmetric(&m) {
		t.Fatal("asymmetric matrix reported symmetric")
	}
	m.Set(2, 1, true)
	if !isSymmetric(&m) {
		t.Fatal("symmetric matrix reported asymmetric")
	}
	rect := NewBitMatrix(2, 3)
	if isSymmetric(&rect) {
		t.Fatal("rectangular matrix reported symmetric")
	}
}

func TestBitMatrixIsSymmetricUpperOnly(t *testing.T) {
	// Regression: a bit set only in the upper triangle must be detected.
	m := NewBitMatrix(4, 4)
	m.Set(0, 3, true)
	if isSymmetric(&m) {
		t.Fatal("upper-triangle-only matrix reported symmetric")
	}
}

func TestBitMatrixCloneIndependence(t *testing.T) {
	m := NewBitMatrix(2, 2)
	m.Set(0, 0, true)
	c := m.Clone()
	c.Set(1, 1, true)
	if m.Get(1, 1) {
		t.Fatal("clone shares storage")
	}
}

func TestBitMatrixOutOfRangePanics(t *testing.T) {
	m := NewBitMatrix(2, 2)
	for _, f := range []func(){
		func() { m.Get(2, 0) },
		func() { m.Get(0, 2) },
		func() { m.Set(-1, 0, true) },
		func() { m.RowOnes(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range access did not panic")
				}
			}()
			f()
		}()
	}
}

// Property: for random bit patterns, RowIndices and Get agree, and Ones is
// the sum of RowOnes.
func TestBitMatrixQuickConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(130)
		m := NewBitMatrix(rows, cols)
		for i := 0; i < rows*cols/2; i++ {
			m.Set(rng.Intn(rows), rng.Intn(cols), rng.Intn(2) == 0)
		}
		total := 0
		for r := 0; r < rows; r++ {
			idx := m.RowIndices(r, nil)
			if len(idx) != m.RowOnes(r) {
				return false
			}
			for _, c := range idx {
				if !m.Get(r, c) {
					return false
				}
			}
			total += len(idx)
		}
		return total == m.Ones()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
