package graph

import (
	"math/rand"
	"testing"
)

func TestGnpExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if g := Gnp(10, 0, rng); g.M() != 0 {
		t.Fatalf("G(10,0) has %d edges", g.M())
	}
	if g := Gnp(10, 1, rng); g.M() != 45 {
		t.Fatalf("G(10,1) has %d edges, want 45", g.M())
	}
}

func TestGnpDeterministic(t *testing.T) {
	a := Gnp(30, 0.4, rand.New(rand.NewSource(42)))
	b := Gnp(30, 0.4, rand.New(rand.NewSource(42)))
	if !a.Equal(b) {
		t.Fatal("same seed produced different graphs")
	}
}

func TestGnpBadProbabilityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Gnp with p>1 did not panic")
		}
	}()
	Gnp(4, 1.5, rand.New(rand.NewSource(1)))
}

func TestPlantedComponentsCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct{ n, k int }{{1, 1}, {8, 1}, {8, 8}, {20, 3}, {33, 7}, {64, 16}} {
		g := PlantedComponents(tc.n, tc.k, 0.3, rng)
		labels := ConnectedComponentsBFS(g)
		if got := ComponentCount(labels); got != tc.k {
			t.Errorf("PlantedComponents(%d,%d): %d components, want %d", tc.n, tc.k, got, tc.k)
		}
	}
}

func TestPlantedComponentsEmpty(t *testing.T) {
	g := PlantedComponents(0, 0, 0, rand.New(rand.NewSource(1)))
	if g.N() != 0 {
		t.Fatal("empty planted graph not empty")
	}
}

func TestPlantedComponentsBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k>n did not panic")
		}
	}()
	PlantedComponents(3, 4, 0, rand.New(rand.NewSource(1)))
}

func TestPathCycleStar(t *testing.T) {
	if g := Path(5); g.M() != 4 || ComponentCount(ConnectedComponentsBFS(g)) != 1 {
		t.Error("Path(5) malformed")
	}
	if g := Cycle(5); g.M() != 5 || g.Degree(0) != 2 {
		t.Error("Cycle(5) malformed")
	}
	if g := Cycle(2); g.M() != 1 {
		t.Error("Cycle(2) should degrade to a single edge")
	}
	if g := Star(6); g.M() != 5 || g.Degree(0) != 5 {
		t.Error("Star(6) malformed")
	}
	if g := Path(0); g.N() != 0 || g.M() != 0 {
		t.Error("Path(0) malformed")
	}
	if g := Path(1); g.N() != 1 || g.M() != 0 {
		t.Error("Path(1) malformed")
	}
}

func TestComplete(t *testing.T) {
	g := Complete(7)
	if g.M() != 21 {
		t.Fatalf("K7 has %d edges, want 21", g.M())
	}
	for u := 0; u < 7; u++ {
		if g.Degree(u) != 6 {
			t.Fatalf("K7 degree(%d) = %d", u, g.Degree(u))
		}
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 {
		t.Fatalf("Grid(3,4).N = %d", g.N())
	}
	// Edges: 3*(4-1) horizontal + (3-1)*4 vertical = 9 + 8 = 17.
	if g.M() != 17 {
		t.Fatalf("Grid(3,4).M = %d, want 17", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 4) || g.HasEdge(3, 4) {
		t.Fatal("grid wiring wrong (row wrap?)")
	}
	if ComponentCount(ConnectedComponentsBFS(g)) != 1 {
		t.Fatal("grid not connected")
	}
}

func TestCompleteBipartite(t *testing.T) {
	g := CompleteBipartite(3, 4)
	if g.N() != 7 || g.M() != 12 {
		t.Fatalf("K(3,4): n=%d m=%d", g.N(), g.M())
	}
	if g.HasEdge(0, 1) || g.HasEdge(3, 4) {
		t.Fatal("intra-side edge present")
	}
}

func TestCaterpillar(t *testing.T) {
	g := Caterpillar(4, 2)
	if g.N() != 12 {
		t.Fatalf("Caterpillar(4,2).N = %d, want 12", g.N())
	}
	if g.M() != 11 { // a tree on 12 vertices
		t.Fatalf("Caterpillar(4,2).M = %d, want 11", g.M())
	}
	if ComponentCount(ConnectedComponentsBFS(g)) != 1 {
		t.Fatal("caterpillar not connected")
	}
}

func TestDisjointCliques(t *testing.T) {
	g := DisjointCliques(3, 4)
	if g.N() != 12 || g.M() != 18 {
		t.Fatalf("3×K4: n=%d m=%d, want 12, 18", g.N(), g.M())
	}
	labels := ConnectedComponentsBFS(g)
	if ComponentCount(labels) != 3 {
		t.Fatalf("3×K4 has %d components", ComponentCount(labels))
	}
}

func TestBinaryTree(t *testing.T) {
	g := BinaryTree(15)
	if g.M() != 14 {
		t.Fatalf("BinaryTree(15).M = %d, want 14", g.M())
	}
	if ComponentCount(ConnectedComponentsBFS(g)) != 1 {
		t.Fatal("tree not connected")
	}
}

func TestMatchingChain(t *testing.T) {
	g := MatchingChain(9)
	if g.M() != 4 {
		t.Fatalf("MatchingChain(9).M = %d, want 4", g.M())
	}
	if got := ComponentCount(ConnectedComponentsBFS(g)); got != 5 {
		t.Fatalf("MatchingChain(9) components = %d, want 5", got)
	}
}

func TestRandomSpanningForest(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := RandomSpanningForest(50, 5, rng)
	if g.M() != 45 { // n - trees edges
		t.Fatalf("forest edges = %d, want 45", g.M())
	}
	if got := ComponentCount(ConnectedComponentsBFS(g)); got != 5 {
		t.Fatalf("forest components = %d, want 5", got)
	}
}

func TestGeneratorsSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for name, g := range map[string]*Graph{
		"gnp":     Gnp(20, 0.5, rng),
		"planted": PlantedComponents(20, 4, 0.5, rng),
		"grid":    Grid(4, 5),
		"cat":     Caterpillar(5, 3),
		"tree":    BinaryTree(20),
	} {
		if !isSymmetric(g.Adjacency()) {
			t.Errorf("%s generator produced asymmetric adjacency", name)
		}
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.N() != 16 {
		t.Fatalf("Q4.N = %d, want 16", g.N())
	}
	// d·2^(d-1) edges.
	if g.M() != 32 {
		t.Fatalf("Q4.M = %d, want 32", g.M())
	}
	for u := 0; u < 16; u++ {
		if g.Degree(u) != 4 {
			t.Fatalf("Q4 degree(%d) = %d, want 4", u, g.Degree(u))
		}
	}
	if ComponentCount(ConnectedComponentsBFS(g)) != 1 {
		t.Fatal("hypercube not connected")
	}
	if q0 := Hypercube(0); q0.N() != 1 || q0.M() != 0 {
		t.Fatal("Q0 malformed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Hypercube(-1) did not panic")
		}
	}()
	Hypercube(-1)
}
