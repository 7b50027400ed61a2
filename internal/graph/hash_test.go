package graph

import (
	"math/rand"
	"strings"
	"testing"
)

func TestFingerprintDeterministic(t *testing.T) {
	g := Gnp(40, 0.2, rand.New(rand.NewSource(1)))
	if g.Fingerprint() != g.Fingerprint() {
		t.Fatal("fingerprint of the same graph differs between calls")
	}
	if g.Fingerprint() != g.Clone().Fingerprint() {
		t.Fatal("fingerprint differs between a graph and its clone")
	}
}

func TestFingerprintInsertionOrderIndependent(t *testing.T) {
	edges := [][2]int{{0, 1}, {1, 2}, {3, 4}, {2, 5}, {0, 5}}
	a := New(6)
	for _, e := range edges {
		a.AddEdge(e[0], e[1])
	}
	b := New(6)
	for i := len(edges) - 1; i >= 0; i-- {
		b.AddEdge(edges[i][1], edges[i][0])
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint depends on edge insertion order")
	}
}

// TestFingerprintConstructionPathIndependent builds the same graph three
// ways — AddEdge calls, a parsed adjacency matrix, and a parsed edge list —
// and demands one fingerprint: the hash is a function of the graph, not of
// how it was assembled.
func TestFingerprintConstructionPathIndependent(t *testing.T) {
	built := New(4)
	built.AddEdge(0, 1)
	built.AddEdge(1, 2)
	built.AddEdge(2, 3)
	built.AddEdge(3, 0)

	fromMatrix, err := ReadMatrix(strings.NewReader("0101\n1010\n0101\n1010\n"))
	if err != nil {
		t.Fatal(err)
	}
	fromEdges, err := ReadEdgeList(strings.NewReader("4 4\n3 0\n2 3\n1 2\n0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if built.Fingerprint() != fromMatrix.Fingerprint() {
		t.Fatal("AddEdge-built and matrix-parsed cycle fingerprints differ")
	}
	if built.Fingerprint() != fromEdges.Fingerprint() {
		t.Fatal("AddEdge-built and edge-list-parsed cycle fingerprints differ")
	}
}

// TestFingerprintIsContentHash pins down what the fingerprint is NOT: an
// isomorphism invariant. Relabelling the vertices of a path yields an
// isomorphic but differently-labelled graph, and the service cache must
// treat it as a distinct key — so the fingerprints have to differ.
func TestFingerprintIsContentHash(t *testing.T) {
	g := Path(6)
	h := Permute(g, []int{0, 2, 4, 1, 3, 5})
	if g.Equal(h) {
		t.Fatal("interleaving permutation of a path should change the edge set")
	}
	if g.Fingerprint() == h.Fingerprint() {
		t.Fatal("fingerprint collision between distinct labelled graphs")
	}
	// The identity permutation, by contrast, must be a no-op.
	id := Permute(g, []int{0, 1, 2, 3, 4, 5})
	if g.Fingerprint() != id.Fingerprint() {
		t.Fatal("identity permutation changed the fingerprint")
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	a := Path(8)
	b := Path(8)
	b.AddEdge(0, 7) // now a cycle
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("fingerprint collision between path and cycle")
	}
	if Empty(4).Fingerprint() == Empty(5).Fingerprint() {
		t.Fatal("fingerprint ignores vertex count")
	}
	c := New(8) // Path(8) without the edge {0, 1}
	for i := 1; i < 7; i++ {
		c.AddEdge(i, i+1)
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("fingerprint unchanged after edge removal")
	}
}
