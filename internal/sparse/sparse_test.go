package sparse

import (
	"math/rand"
	"testing"

	"gcacc/internal/graph"
)

func TestGraphBasics(t *testing.T) {
	g := New(5)
	g.AddEdge(3, 1)
	g.AddEdge(1, 3) // duplicate (reversed) collapses
	g.AddEdge(0, 4)
	if got := g.M(); got != 2 {
		t.Fatalf("M = %d, want 2", got)
	}
	want := []Edge{{0, 4}, {1, 3}}
	for i, e := range g.Edges() {
		if e != want[i] {
			t.Fatalf("Edges()[%d] = %v, want %v", i, e, want[i])
		}
	}
	if g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Fatalf("degrees wrong: deg(1)=%d deg(2)=%d", g.Degree(1), g.Degree(2))
	}
	if nb := g.Neighbors(4, nil); len(nb) != 1 || nb[0] != 0 {
		t.Fatalf("Neighbors(4) = %v, want [0]", nb)
	}
}

func TestGraphPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"self-loop":    func() { New(3).AddEdge(1, 1) },
		"out-of-range": func() { New(3).AddEdge(0, 3) },
		"negative-n":   func() { New(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := graph.Gnp(60, 0.1, rng)
	sp := FromDense(d)
	if sp.N() != d.N() || sp.M() != d.M() {
		t.Fatalf("FromDense: n=%d m=%d, want n=%d m=%d", sp.N(), sp.M(), d.N(), d.M())
	}
	back, err := sp.ToDense()
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != d.Fingerprint() {
		t.Fatal("dense → sparse → dense changed the graph")
	}
}

func TestToDenseCutoff(t *testing.T) {
	g := New(DenseCutoff + 1)
	if _, err := g.ToDense(); err == nil {
		t.Fatal("ToDense above the cutoff did not error")
	}
	g2 := New(DenseCutoff)
	if _, err := g2.ToDense(); err != nil {
		t.Fatalf("ToDense at the cutoff errored: %v", err)
	}
}

func TestFingerprintCanonical(t *testing.T) {
	a, b := New(6), New(6)
	a.AddEdge(0, 1)
	a.AddEdge(2, 5)
	b.AddEdge(5, 2) // reversed, different insertion order, with a duplicate
	b.AddEdge(0, 1)
	b.AddEdge(2, 5)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint depends on insertion order")
	}
	c := New(6)
	c.AddEdge(0, 1)
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different edge sets share a fingerprint")
	}
	if !a.Equal(b) || a.Equal(c) {
		t.Fatal("Equal disagrees with fingerprints")
	}
}

func TestUnionFindVsBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	graphs := []*Graph{
		New(0), New(1), Path(50), Cycle(50), Star(50), MatchingChain(51),
		RandomEdges(200, 300, rng), RMAT(8, 500, rng), PlantedForest(120, 7, rng),
	}
	for i, g := range graphs {
		uf := ConnectedComponentsUnionFind(g)
		bfs := ConnectedComponentsBFS(g)
		for v := range uf {
			if uf[v] != bfs[v] {
				t.Fatalf("graph %d: union-find and BFS disagree at vertex %d: %d vs %d", i, v, uf[v], bfs[v])
			}
		}
	}
}

func TestPlantedForestComponentCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{1, 2, 9, 40} {
		g := PlantedForest(400, k, rng)
		if got := ComponentCount(ConnectedComponentsUnionFind(g)); got != k {
			t.Fatalf("PlantedForest(400, %d) has %d components", k, got)
		}
	}
}

// Degree returns the number of neighbours of vertex u.
func (g *Graph) Degree(u int) int {
	g.check(u)
	off, _ := g.csr()
	return int(off[u+1] - off[u])
}

// Neighbors appends the neighbours of u (ascending) to dst and returns
// the extended slice.
func (g *Graph) Neighbors(u int, dst []int) []int {
	g.check(u)
	off, adj := g.csr()
	for _, v := range adj[off[u]:off[u+1]] {
		dst = append(dst, int(v))
	}
	return dst
}
