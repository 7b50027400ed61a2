package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestUnionFindBasics(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Sets() != 5 {
		t.Fatalf("Sets = %d, want 5", uf.Sets())
	}
	if !uf.Union(0, 1) {
		t.Fatal("first union reported no-op")
	}
	if uf.Union(1, 0) {
		t.Fatal("repeat union reported merge")
	}
	if uf.Find(0) != uf.Find(1) {
		t.Fatal("0 and 1 not merged")
	}
	if uf.Find(2) == uf.Find(0) {
		t.Fatal("2 wrongly merged")
	}
	uf.Union(2, 3)
	uf.Union(0, 3)
	if uf.Sets() != 2 {
		t.Fatalf("Sets = %d, want 2", uf.Sets())
	}
}

// TestUnionFindPathCompression builds a path in both orders; the
// descending one hangs every root under the next smaller vertex, the
// deepest chain linking by minimum can build, and Find must still land
// on vertex 0 from everywhere.
func TestUnionFindPathCompression(t *testing.T) {
	for _, descending := range []bool{false, true} {
		uf := NewUnionFind(100)
		for i := 0; i+1 < 100; i++ {
			if descending {
				uf.Union(98-i, 99-i)
			} else {
				uf.Union(i, i+1)
			}
		}
		for i := 99; i >= 0; i-- {
			if uf.Find(i) != 0 {
				t.Fatalf("descending=%v: Find(%d) = %d, want the minimum 0", descending, i, uf.Find(i))
			}
		}
		if uf.Sets() != 1 {
			t.Fatalf("descending=%v: Sets = %d, want 1", descending, uf.Sets())
		}
	}
}

// TestUnionFindLabels pins the minimum root: Labels answers in the
// minimum-vertex convention straight from the forest.
func TestUnionFindLabels(t *testing.T) {
	u := NewUnionFind(6)
	if u.Sets() != 6 {
		t.Fatalf("fresh forest: sets=%d", u.Sets())
	}
	if !u.Union(4, 5) || !u.Union(1, 2) || !u.Union(2, 4) {
		t.Fatal("fresh unions reported no-op")
	}
	if u.Union(1, 5) {
		t.Fatal("union inside one set reported a merge")
	}
	if u.Sets() != 3 {
		t.Fatalf("sets = %d, want 3", u.Sets())
	}
	want := []int{0, 1, 1, 3, 1, 1}
	if got := u.Labels(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("labels = %v, want %v", got, want)
	}
}

// TestUnionFindReset: a reset forest is n fresh singletons that unions
// merge again, and the reset itself allocates nothing.
func TestUnionFindReset(t *testing.T) {
	u := NewUnionFind(5)
	u.Union(0, 4)
	u.Union(1, 3)
	u.Union(3, 4)
	u.Reset()
	if got := u.Labels(nil); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) || u.Sets() != 5 {
		t.Fatalf("after reset: labels %v, sets %d", got, u.Sets())
	}
	if !u.Union(4, 2) || !u.Union(3, 4) || u.Union(2, 3) {
		t.Fatal("unions on the reset forest reported the wrong merges")
	}
	if got := u.Labels(nil); !reflect.DeepEqual(got, []int{0, 1, 2, 2, 2}) || u.Sets() != 3 {
		t.Fatalf("after post-reset unions: labels %v, sets %d", got, u.Sets())
	}
	if allocs := testing.AllocsPerRun(10, u.Reset); allocs != 0 {
		t.Fatalf("Reset allocates %.0f times", allocs)
	}
}

func TestComponentsKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"empty0", Empty(0), 0},
		{"empty5", Empty(5), 5},
		{"single", Empty(1), 1},
		{"path", Path(8), 1},
		{"cycle", Cycle(8), 1},
		{"star", Star(9), 1},
		{"complete", Complete(6), 1},
		{"matching", MatchingChain(10), 5},
		{"cliques", DisjointCliques(4, 3), 4},
		{"grid", Grid(5, 5), 1},
	}
	for _, tc := range cases {
		for algName, alg := range map[string]func(*Graph) []int{
			"bfs": ConnectedComponentsBFS,
			"dfs": ConnectedComponentsDFS,
			"uf":  ConnectedComponentsUnionFind,
		} {
			labels := alg(tc.g)
			if got := ComponentCount(labels); got != tc.want {
				t.Errorf("%s/%s: %d components, want %d", tc.name, algName, got, tc.want)
			}
			if !IsValidComponentLabelling(tc.g, labels) {
				t.Errorf("%s/%s: invalid labelling %v", tc.name, algName, labels)
			}
		}
	}
}

func TestBaselinesAgreeOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		p := rng.Float64() * rng.Float64() // biased toward sparse
		g := Gnp(n, p, rng)
		bfs := ConnectedComponentsBFS(g)
		dfs := ConnectedComponentsDFS(g)
		uf := ConnectedComponentsUnionFind(g)
		for i := 0; i < n; i++ {
			if bfs[i] != dfs[i] || bfs[i] != uf[i] {
				t.Fatalf("trial %d (n=%d p=%.3f): disagreement at %d: bfs=%d dfs=%d uf=%d",
					trial, n, p, i, bfs[i], dfs[i], uf[i])
			}
		}
		if !IsValidComponentLabelling(g, bfs) {
			t.Fatalf("trial %d: BFS labelling invalid", trial)
		}
	}
}

func TestSuperNodeConvention(t *testing.T) {
	// Vertices 2,4,6 connected; the super node must be 2 for all of them.
	g := New(8)
	g.AddEdge(4, 6)
	g.AddEdge(2, 6)
	labels := ConnectedComponentsUnionFind(g)
	for _, v := range []int{2, 4, 6} {
		if labels[v] != 2 {
			t.Errorf("labels[%d] = %d, want 2", v, labels[v])
		}
	}
	for _, v := range []int{0, 1, 3, 5, 7} {
		if labels[v] != v {
			t.Errorf("isolated labels[%d] = %d, want %d", v, labels[v], v)
		}
	}
}

func TestComponentSizes(t *testing.T) {
	g := DisjointCliques(2, 3)
	sizes := ComponentSizes(ConnectedComponentsBFS(g))
	if len(sizes) != 2 || sizes[0] != 3 || sizes[3] != 3 {
		t.Fatalf("sizes = %v, want {0:3, 3:3}", sizes)
	}
}

func TestSamePartition(t *testing.T) {
	a := []int{0, 0, 2, 2}
	b := []int{7, 7, 9, 9}
	if !SamePartition(a, b) {
		t.Fatal("identical partitions with different labels rejected")
	}
	c := []int{7, 7, 7, 9}
	if SamePartition(a, c) {
		t.Fatal("different partitions accepted")
	}
	// Injectivity both ways: merging on one side only must fail.
	d := []int{0, 0, 0, 0}
	if SamePartition(a, d) || SamePartition(d, a) {
		t.Fatal("coarser partition accepted")
	}
	if SamePartition([]int{1}, []int{1, 2}) {
		t.Fatal("length mismatch accepted")
	}
	if !SamePartition(nil, nil) {
		t.Fatal("empty partitions rejected")
	}
}

func TestCanonicalLabels(t *testing.T) {
	in := []int{5, 5, 9, 9, 5}
	got := CanonicalLabels(in)
	want := []int{0, 0, 2, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CanonicalLabels = %v, want %v", got, want)
		}
	}
	// Input untouched.
	if in[0] != 5 {
		t.Fatal("input mutated")
	}
}

func TestIsValidComponentLabellingRejects(t *testing.T) {
	g := Path(4)
	if IsValidComponentLabelling(g, []int{0, 0, 0}) {
		t.Fatal("length mismatch accepted")
	}
	if IsValidComponentLabelling(g, []int{0, 0, 1, 1}) {
		t.Fatal("edge-splitting labelling accepted")
	}
	if IsValidComponentLabelling(g, []int{1, 1, 1, 1}) {
		t.Fatal("non-minimal representative accepted")
	}
	h := Empty(4)
	// 0 and 2 share a label but are not connected.
	if IsValidComponentLabelling(h, []int{0, 1, 0, 3}) {
		t.Fatal("disconnected class accepted")
	}
}

// Property test: on arbitrary random graphs the three baselines produce the
// identical canonical labelling and a valid partition.
func TestComponentsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60)
		g := Gnp(n, rng.Float64()/3, rng)
		bfs := ConnectedComponentsBFS(g)
		if !IsValidComponentLabelling(g, bfs) {
			return false
		}
		uf := ConnectedComponentsUnionFind(g)
		return SamePartition(bfs, uf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
