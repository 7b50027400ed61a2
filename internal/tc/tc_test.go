package tc

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"gcacc/internal/graph"
)

// closureByBFS is an independent ground truth: reachability by search.
func closureByBFS(g *graph.Graph) *Closure {
	n := g.N()
	bits := graph.NewBitMatrix(n, n)
	var idx []int
	for s := 0; s < n; s++ {
		seen := make([]bool, n)
		seen[s] = true
		stack := []int{s}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			bits.Set(s, u, true)
			idx = g.Adjacency().RowIndices(u, idx[:0])
			for _, v := range idx {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
	}
	return &Closure{N: n, Bits: bits}
}

func closuresEqual(a, b *Closure) bool {
	return a.N == b.N && a.Bits.Equal(&b.Bits)
}

func TestWarshallKnownGraphs(t *testing.T) {
	cases := map[string]*graph.Graph{
		"empty0":   graph.New(0),
		"single":   graph.New(1),
		"path4":    graph.Path(4),
		"cycle5":   graph.Cycle(5),
		"cliques":  graph.DisjointCliques(2, 3),
		"star6":    graph.Star(6),
		"isolated": graph.Empty(5),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			got := Warshall(g)
			want := closureByBFS(g)
			if !closuresEqual(got, want) {
				t.Fatalf("Warshall closure differs from BFS closure")
			}
		})
	}
}

func TestWarshallReflexive(t *testing.T) {
	c := Warshall(graph.Empty(4))
	for i := 0; i < 4; i++ {
		if !c.Reachable(i, i) {
			t.Fatalf("closure not reflexive at %d", i)
		}
		for j := 0; j < 4; j++ {
			if i != j && c.Reachable(i, j) {
				t.Fatalf("edgeless closure has (%d,%d)", i, j)
			}
		}
	}
}

func TestPRAMClosureMatchesWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(16)
		g := graph.Gnp(n, rng.Float64()/2, rng)
		res, err := PRAM(g)
		if err != nil {
			t.Fatal(err)
		}
		if !closuresEqual(res.Closure, Warshall(g)) {
			t.Fatalf("trial %d (n=%d): PRAM closure wrong\n%s", trial, n, g)
		}
		if res.Squarings != log2Ceil(n) {
			t.Fatalf("squarings = %d, want %d", res.Squarings, log2Ceil(n))
		}
	}
}

func TestGCAClosureMatchesWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(20)
		g := graph.Gnp(n, rng.Float64()/2, rng)
		res, err := GCA(g, GCAOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !closuresEqual(res.Closure, Warshall(g)) {
			t.Fatalf("trial %d (n=%d): GCA closure wrong\n%s", trial, n, g)
		}
	}
}

func TestGCAClosureGenerationCount(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 11} {
		g := graph.Path(n)
		res, err := GCA(g, GCAOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Generations != TotalGenerations(n) {
			t.Errorf("n=%d: %d generations, want %d", n, res.Generations, TotalGenerations(n))
		}
	}
	if TotalGenerations(0) != 0 {
		t.Error("TotalGenerations(0) != 0")
	}
}

func TestGCAClosureTwoHandedCongestion(t *testing.T) {
	// During scan sub-generation k, hand 1 makes cell (k,·) of each row
	// serve that row — cell (i,k) gets n readers — and hand 2 makes cell
	// (k,j) serve its column (n readers). Cell (k,k) is hit by both hands
	// of its whole row and column, including its own two reads: δ = 2n.
	n := 8
	res, err := GCA(graph.Complete(n), GCAOptions{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxDelta != 2*n {
		t.Fatalf("two-handed maxδ = %d, want %d", res.MaxDelta, 2*n)
	}
}

func TestClosureComponentLabelsMatchUnionFind(t *testing.T) {
	// For symmetric adjacency, reflexive-transitive closure = component
	// equivalence: the derived labels must equal the super-node labels.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(18)
		g := graph.Gnp(n, rng.Float64()/2, rng)
		res, err := GCA(g, GCAOptions{})
		if err != nil {
			return false
		}
		labels := res.Closure.ComponentLabels()
		want := graph.ConnectedComponentsUnionFind(g)
		for i := range want {
			if labels[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPRAMClosureCROWDiscipline(t *testing.T) {
	// The squaring closure is owner-write throughout; a clean run on the
	// CROW checker is the proof.
	g := graph.Gnp(8, 0.4, rand.New(rand.NewSource(505)))
	if _, err := PRAM(g); err != nil {
		t.Fatalf("CROW checker fired: %v", err)
	}
}

func TestEmptyGraphs(t *testing.T) {
	if res, err := PRAM(graph.New(0)); err != nil || res.Closure.N != 0 {
		t.Fatalf("PRAM empty: %v", err)
	}
	if res, err := GCA(graph.New(0), GCAOptions{}); err != nil || res.Closure.N != 0 {
		t.Fatalf("GCA empty: %v", err)
	}
}

// directedReachBFS is the independent ground truth for directed closure.
func directedReachBFS(adj *graph.BitMatrix) *Closure {
	n := adj.Rows()
	bits := graph.NewBitMatrix(n, n)
	for s := 0; s < n; s++ {
		seen := make([]bool, n)
		seen[s] = true
		stack := []int{s}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			bits.Set(s, u, true)
			for _, v := range adj.RowIndices(u, nil) {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
	}
	return &Closure{N: n, Bits: bits}
}

func TestDirectedClosureMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(507))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(16)
		adj := graph.NewBitMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.25 {
					adj.Set(i, j, true) // asymmetric arcs
				}
			}
		}
		want := directedReachBFS(&adj)
		w, err := WarshallMatrix(&adj)
		if err != nil {
			t.Fatal(err)
		}
		if !closuresEqual(w, want) {
			t.Fatalf("trial %d: Warshall directed closure wrong", trial)
		}
		g, err := GCAMatrix(&adj, GCAOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !closuresEqual(g.Closure, want) {
			t.Fatalf("trial %d: GCA directed closure wrong", trial)
		}
	}
}

func TestDirectedClosureAcyclicChain(t *testing.T) {
	// 0 → 1 → 2: reachability is one-way.
	adj := graph.NewBitMatrix(3, 3)
	adj.Set(0, 1, true)
	adj.Set(1, 2, true)
	c, err := GCAMatrix(&adj, GCAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Closure.Reachable(0, 2) {
		t.Fatal("forward reachability missing")
	}
	if c.Closure.Reachable(2, 0) || c.Closure.Reachable(1, 0) {
		t.Fatal("directed closure became symmetric")
	}
}

func TestMatrixClosureRejectsNonSquare(t *testing.T) {
	adj := graph.NewBitMatrix(2, 3)
	if _, err := WarshallMatrix(&adj); err == nil {
		t.Error("Warshall accepted a rectangular matrix")
	}
	if _, err := GCAMatrix(&adj, GCAOptions{}); err == nil {
		t.Error("GCA accepted a rectangular matrix")
	}
}

func TestMatrixClosureEmpty(t *testing.T) {
	adj := graph.NewBitMatrix(0, 0)
	res, err := GCAMatrix(&adj, GCAOptions{})
	if err != nil || res.Closure.N != 0 {
		t.Fatalf("empty matrix closure: %v", err)
	}
}

// TotalGenerations returns the GCA closure's step count: 1 + log n·(n+1).
func TotalGenerations(n int) int {
	if n < 1 {
		return 0
	}
	return 1 + log2Ceil(n)*(n+1)
}

// WarshallMatrix computes the reflexive-transitive closure of an
// arbitrary square boolean matrix.
func WarshallMatrix(adj *graph.BitMatrix) (*Closure, error) {
	n := adj.Rows()
	if adj.Cols() != n {
		return nil, fmt.Errorf("tc: adjacency matrix is %d×%d, want square", adj.Rows(), adj.Cols())
	}
	b := adj.Clone()
	for i := 0; i < n; i++ {
		b.Set(i, i, true)
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if b.Get(i, k) {
				b.OrRowInto(i, k)
			}
		}
	}
	return &Closure{N: n, Bits: b}, nil
}
