package graph

import (
	"math/rand"
	"testing"
)

func TestNewGraphEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 {
		t.Fatalf("N() = %d, want 5", g.N())
	}
	if g.M() != 0 {
		t.Fatalf("M() = %d, want 0", g.M())
	}
	for u := 0; u < 5; u++ {
		if g.Degree(u) != 0 {
			t.Errorf("Degree(%d) = %d, want 0", u, g.Degree(u))
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddEdgeSymmetric(t *testing.T) {
	g := New(4)
	g.AddEdge(1, 3)
	if !g.HasEdge(1, 3) || !g.HasEdge(3, 1) {
		t.Fatal("edge not symmetric")
	}
	if g.M() != 1 {
		t.Fatalf("M() = %d, want 1", g.M())
	}
	if !isSymmetric(g.Adjacency()) {
		t.Fatal("adjacency not symmetric")
	}
}

func TestAddEdgeIdempotent(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	if g.M() != 1 {
		t.Fatalf("M() = %d, want 1", g.M())
	}
}

func TestSelfLoopPanics(t *testing.T) {
	g := New(3)
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge(1,1) did not panic")
		}
	}()
	g.AddEdge(1, 1)
}

func TestOutOfRangePanics(t *testing.T) {
	g := New(3)
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge(0,3) did not panic")
		}
	}()
	g.AddEdge(0, 3)
}

func TestNeighborsSorted(t *testing.T) {
	g := New(6)
	g.AddEdge(3, 5)
	g.AddEdge(3, 0)
	g.AddEdge(3, 4)
	got := g.Neighbors(3, nil)
	want := []int{0, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("Neighbors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors = %v, want %v", got, want)
		}
	}
}

func TestEdgesOrdering(t *testing.T) {
	g := New(4)
	g.AddEdge(2, 3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 3)
	edges := g.Edges()
	want := []Edge{{0, 1}, {0, 3}, {2, 3}}
	if len(edges) != len(want) {
		t.Fatalf("Edges = %v, want %v", edges, want)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("Edges = %v, want %v", edges, want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	h := g.Clone()
	h.AddEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Fatal("clone shares storage with original")
	}
	if !h.HasEdge(0, 1) {
		t.Fatal("clone missing original edge")
	}
}

func TestEqual(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 2)
	h := New(3)
	h.AddEdge(0, 2)
	if !g.Equal(h) {
		t.Fatal("equal graphs reported unequal")
	}
	h.AddEdge(0, 1)
	if g.Equal(h) {
		t.Fatal("unequal graphs reported equal")
	}
	if g.Equal(New(4)) {
		t.Fatal("different sizes reported equal")
	}
}

func TestStringMatrix(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	want := "010\n100\n000\n"
	if got := g.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestDegreeSum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := Gnp(40, 0.3, rng)
	sum := 0
	for u := 0; u < g.N(); u++ {
		sum += g.Degree(u)
	}
	if sum != 2*g.M() {
		t.Fatalf("degree sum %d != 2m = %d", sum, 2*g.M())
	}
}
