package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gcacc/internal/graph"
)

func labelsOf(t *testing.T, g *graph.Graph) []int {
	t.Helper()
	res, err := ConnectedComponents(g)
	if err != nil {
		t.Fatal(err)
	}
	return res.Labels
}

func TestEmptyGraph(t *testing.T) {
	res, err := ConnectedComponents(graph.New(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != 0 || res.Generations != 0 {
		t.Fatalf("empty graph: %+v", res)
	}
}

func TestSingleVertex(t *testing.T) {
	labels := labelsOf(t, graph.New(1))
	if len(labels) != 1 || labels[0] != 0 {
		t.Fatalf("labels = %v, want [0]", labels)
	}
}

func TestSingleEdge(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	labels := labelsOf(t, g)
	if labels[0] != 0 || labels[1] != 0 {
		t.Fatalf("labels = %v, want [0 0]", labels)
	}
}

func TestTwoIsolatedVertices(t *testing.T) {
	labels := labelsOf(t, graph.New(2))
	if labels[0] != 0 || labels[1] != 1 {
		t.Fatalf("labels = %v, want [0 1]", labels)
	}
}

func TestPaperStyleExample(t *testing.T) {
	// Two two-node components on n = 4 (a power of two, the paper's
	// native regime).
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	labels := labelsOf(t, g)
	want := []int{0, 0, 2, 2}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
}

func TestKnownTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"path16", graph.Path(16)},
		{"path13", graph.Path(13)}, // non-power-of-two
		{"cycle8", graph.Cycle(8)},
		{"cycle9", graph.Cycle(9)},
		{"star16", graph.Star(16)},
		{"complete8", graph.Complete(8)},
		{"complete7", graph.Complete(7)},
		{"matching16", graph.MatchingChain(16)},
		{"cliques4x4", graph.DisjointCliques(4, 4)},
		{"grid4x4", graph.Grid(4, 4)},
		{"grid3x5", graph.Grid(3, 5)},
		{"btree15", graph.BinaryTree(15)},
		{"btree16", graph.BinaryTree(16)},
		{"caterpillar", graph.Caterpillar(4, 3)},
		{"empty16", graph.Empty(16)},
		{"gnp", graph.Gnp(24, 0.15, rng)},
		{"forest", graph.RandomSpanningForest(20, 4, rng)},
		{"bipartite", graph.CompleteBipartite(5, 6)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			labels := labelsOf(t, tc.g)
			if !graph.IsValidComponentLabelling(tc.g, labels) {
				want := graph.ConnectedComponentsUnionFind(tc.g)
				t.Fatalf("invalid labelling\n got %v\nwant %v", labels, want)
			}
		})
	}
}

func TestAgainstUnionFindRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(33)
		p := rng.Float64() * rng.Float64()
		g := graph.Gnp(n, p, rng)
		got := labelsOf(t, g)
		want := graph.ConnectedComponentsUnionFind(g)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d p=%.3f):\nadj\n%s got %v\nwant %v",
					trial, n, p, g, got, want)
			}
		}
	}
}

func TestAgainstUnionFindPlanted(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(40)
		k := 1 + rng.Intn(n)
		g := graph.PlantedComponents(n, k, rng.Float64()/2, rng)
		res, err := ConnectedComponents(g)
		if err != nil {
			t.Fatal(err)
		}
		if res.ComponentCount() != k {
			t.Fatalf("trial %d: %d components, want %d", trial, res.ComponentCount(), k)
		}
		if !graph.IsValidComponentLabelling(g, res.Labels) {
			t.Fatalf("trial %d: invalid labelling", trial)
		}
	}
}

// Property-based test on the central invariant: the GCA program computes
// exactly the super-node labelling on arbitrary random graphs.
func TestQuickGCAMatchesGroundTruth(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(48)
		g := graph.Gnp(n, rng.Float64()/2, rng)
		res, err := ConnectedComponents(g)
		if err != nil {
			return false
		}
		return graph.IsValidComponentLabelling(g, res.Labels)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerationCountMatchesFormula(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 32} {
		g := graph.Path(n)
		res, err := ConnectedComponents(g)
		if err != nil {
			t.Fatal(err)
		}
		if res.Generations != TotalGenerations(n) {
			t.Errorf("n=%d: %d generations, formula says %d", n, res.Generations, TotalGenerations(n))
		}
	}
}

func TestTotalGenerationsFormula(t *testing.T) {
	// 1 + log n · (3 log n + 8) for powers of two.
	for k, n := 1, 2; n <= 1024; k, n = k+1, n*2 {
		want := 1 + k*(3*k+8)
		if got := TotalGenerations(n); got != want {
			t.Errorf("n=%d: TotalGenerations = %d, want %d", n, got, want)
		}
	}
	if TotalGenerations(1) != 1 {
		t.Errorf("TotalGenerations(1) = %d, want 1", TotalGenerations(1))
	}
}

func TestDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := graph.Gnp(32, 0.1, rng)
	want := labelsOf(t, g)
	for _, workers := range []int{1, 2, 7, 16} {
		res, err := Run(g, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if res.Labels[i] != want[i] {
				t.Fatalf("workers=%d: labels differ at %d", workers, i)
			}
		}
	}
}

func TestStatsRecords(t *testing.T) {
	g := graph.Path(8)
	res, err := Run(g, Options{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != res.Generations {
		t.Fatalf("%d records for %d generations", len(res.Records), res.Generations)
	}
	// First record is generation 0: all n(n+1) cells change 0→row except
	// row 0, so active = n·n (rows 1..n of n cells each).
	r0 := res.Records[0]
	if r0.Generation != GenInit || r0.Iteration != -1 {
		t.Fatalf("first record = %+v", r0)
	}
	if r0.Reads != 0 {
		t.Fatalf("generation 0 performed %d reads, want 0", r0.Reads)
	}
	// Generation ids appear in the documented order.
	wantOrder := []int{GenCopyC, GenMaskAdj, GenReduceT, GenReduceT, GenReduceT,
		GenDefaultT, GenCopyT, GenMaskComp, GenReduceT2, GenReduceT2, GenReduceT2,
		GenDefaultT2, GenSpread, GenShortcut, GenShortcut, GenShortcut, GenFinalMin}
	for i, want := range wantOrder {
		got := res.Records[1+i]
		if got.Generation != want {
			t.Fatalf("record %d: generation %d, want %d", 1+i, got.Generation, want)
		}
		if got.Iteration != 0 {
			t.Fatalf("record %d: iteration %d, want 0", 1+i, got.Iteration)
		}
	}
}

func TestIterationOverride(t *testing.T) {
	// A path of 16 nodes cannot be resolved in a single iteration, but a
	// disjoint-clique graph can. The override exists for exactly this
	// kind of experiment.
	g := graph.DisjointCliques(4, 4)
	res, err := Run(g, Options{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsValidComponentLabelling(g, res.Labels) {
		t.Fatalf("one iteration should resolve disjoint cliques, got %v", res.Labels)
	}
	if res.Iterations != 1 {
		t.Fatalf("Iterations = %d, want 1", res.Iterations)
	}
	if res.Generations != 1+GenerationsPerIteration(16) {
		t.Fatalf("Generations = %d", res.Generations)
	}
}

func TestComponentsHalveEachIteration(t *testing.T) {
	// The paper's convergence argument: the number of components that can
	// merge at least halves per iteration. Verify on a long path, the
	// slowest-merging connected topology, by running 1, 2, … iterations.
	n := 32
	g := graph.Path(n)
	prev := n
	for it := 1; it <= Iterations(n); it++ {
		res, err := Run(g, Options{Iterations: it})
		if err != nil {
			t.Fatal(err)
		}
		count := res.ComponentCount()
		if count > (prev+1)/2 {
			t.Fatalf("after %d iterations: %d components, want ≤ %d", it, count, (prev+1)/2)
		}
		prev = count
	}
	if prev != 1 {
		t.Fatalf("path did not fully merge: %d components", prev)
	}
}

func TestLayout(t *testing.T) {
	l := Layout{N: 4}
	if l.Size() != 20 {
		t.Fatalf("Size = %d, want 20", l.Size())
	}
	if l.Index(0, 0) != 0 || l.Index(1, 0) != 4 || l.Index(4, 3) != 19 {
		t.Fatal("Index arithmetic wrong")
	}
	if l.ColumnZero(2) != 8 || l.BottomRow(1) != 17 {
		t.Fatal("ColumnZero/BottomRow wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Index did not panic")
		}
	}()
	l.Index(5, 0)
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 17: 5, 1024: 10}
	for n, want := range cases {
		if got := Log2Ceil(n); got != want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestGenerationNames(t *testing.T) {
	seen := map[string]bool{}
	for g := GenInit; g <= GenFinalMin; g++ {
		name := GenerationName(g)
		if name == "unknown" || seen[name] {
			t.Errorf("generation %d: bad or duplicate name %q", g, name)
		}
		seen[name] = true
		if s := StepOfGeneration(g); s < 1 || s > 6 {
			t.Errorf("generation %d: step %d out of range", g, s)
		}
	}
	if GenerationName(99) != "unknown" || StepOfGeneration(99) != 0 {
		t.Error("unknown generation not handled")
	}
}

func TestStepMapping(t *testing.T) {
	// Table 1's step column.
	want := map[int]int{
		GenInit:  1,
		GenCopyC: 2, GenMaskAdj: 2, GenReduceT: 2, GenDefaultT: 2,
		GenCopyT: 3, GenMaskComp: 3, GenReduceT2: 3, GenDefaultT2: 3,
		GenSpread: 4, GenShortcut: 5, GenFinalMin: 6,
	}
	for g, s := range want {
		if StepOfGeneration(g) != s {
			t.Errorf("StepOfGeneration(%d) = %d, want %d", g, StepOfGeneration(g), s)
		}
	}
}

// TestRunAllocations pins a default run's allocations at the serving
// shape (n = 128, m = 256) and at the cluster-hot preload shape
// (n = 512, m = 1024). A chained run allocates its gather vectors and
// binds its two kernels once, and computes its control sequence per
// step, so the count is flat in the number of steps; a gather or a
// kernel closure made per step would add one allocation for every
// committed step (22 at n = 128).
func TestRunAllocations(t *testing.T) {
	for _, tc := range []struct{ n, m, max int }{
		{128, 256, 14},
		{512, 1024, 17},
	} {
		rng := rand.New(rand.NewSource(2007))
		g := graph.New(tc.n)
		for i := 0; i < tc.m; i++ {
			if u, v := rng.Intn(tc.n), rng.Intn(tc.n); u != v {
				g.AddEdge(u, v)
			}
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := Run(g, Options{}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > float64(tc.max) {
			t.Errorf("n=%d m=%d: a default run allocates %.0f times, want at most %d", tc.n, tc.m, allocs, tc.max)
		}
	}
}
