package ncell

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gcacc/internal/core"
	"gcacc/internal/graph"
)

func TestPacking(t *testing.T) {
	v := pack(5, 1234, InfLane)
	if unpackC(v) != 5 || unpackT(v) != 1234 || unpackAcc(v) != InfLane {
		t.Fatalf("pack/unpack broken: %d %d %d", unpackC(v), unpackT(v), unpackAcc(v))
	}
	max := MaxN
	v = pack(max, max, max)
	if unpackC(v) != max || unpackT(v) != max || unpackAcc(v) != max {
		t.Fatal("packing saturates below MaxN")
	}
}

func TestNCellKnownGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	cases := map[string]*graph.Graph{
		"empty0":   graph.New(0),
		"single":   graph.New(1),
		"edge":     graph.MatchingChain(2),
		"path16":   graph.Path(16),
		"path13":   graph.Path(13),
		"cycle9":   graph.Cycle(9),
		"star12":   graph.Star(12),
		"complete": graph.Complete(9),
		"cliques":  graph.DisjointCliques(3, 5),
		"grid":     graph.Grid(4, 5),
		"empty9":   graph.Empty(9),
		"gnp":      graph.Gnp(25, 0.2, rng),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			res, err := ConnectedComponents(g)
			if err != nil {
				t.Fatal(err)
			}
			if !graph.IsValidComponentLabelling(g, res.Labels) {
				t.Fatalf("invalid labelling %v", res.Labels)
			}
		})
	}
}

func TestNCellMatchesN2Design(t *testing.T) {
	// The two design points must compute identical labellings.
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(30)
		g := graph.Gnp(n, rng.Float64(), rng)
		a, err := ConnectedComponents(g)
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.ConnectedComponents(g)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Labels {
			if a.Labels[i] != b.Labels[i] {
				t.Fatalf("trial %d (n=%d): designs disagree at %d: %d vs %d\n%s",
					trial, n, i, a.Labels[i], b.Labels[i], g)
			}
		}
	}
}

func TestNCellQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(32)
		g := graph.Gnp(n, rng.Float64()/2, rng)
		res, err := ConnectedComponents(g)
		if err != nil {
			return false
		}
		return graph.IsValidComponentLabelling(g, res.Labels)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNCellGenerationCount(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 17, 32} {
		g := graph.Path(n)
		res, err := ConnectedComponents(g)
		if err != nil {
			t.Fatal(err)
		}
		if res.Generations != TotalGenerations(n) {
			t.Errorf("n=%d: %d generations, formula %d", n, res.Generations, TotalGenerations(n))
		}
	}
	// The design tradeoff: Θ(n log n) here vs the n²-cell design's
	// Θ(log² n); at n = 32 the n-cell design is already ~10× slower.
	if TotalGenerations(32) <= core.TotalGenerations(32) {
		t.Error("n-cell design should cost more generations than the n²-cell design")
	}
}

func TestNCellScanCongestionIsOne(t *testing.T) {
	// The rotation scans are bijections: congestion exactly 1, no
	// remedies needed (contrast with the n²-cell design's Table 1).
	g := graph.Gnp(16, 0.5, rand.New(rand.NewSource(107)))
	res, err := Run(g, Options{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Records {
		switch r.Phase {
		case PhScanC, PhScanT:
			if r.MaxDelta != 1 {
				t.Fatalf("scan phase %d sub %d: maxδ = %d, want 1", r.Phase, r.Sub, r.MaxDelta)
			}
			if r.Reads != 16 {
				t.Fatalf("scan phase reads = %d, want 16", r.Reads)
			}
		case PhShortcut, PhFinalMin:
			if r.MaxDelta > 16 {
				t.Fatalf("pointer phase maxδ = %d exceeds n", r.MaxDelta)
			}
		}
	}
}

func TestNCellIterationOverride(t *testing.T) {
	g := graph.DisjointCliques(4, 4)
	res, err := Run(g, Options{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Fatalf("Iterations = %d", res.Iterations)
	}
	if !graph.IsValidComponentLabelling(g, res.Labels) {
		t.Fatal("one iteration should resolve disjoint cliques")
	}
}

func TestNCellDeterministicAcrossWorkers(t *testing.T) {
	g := graph.Gnp(24, 0.3, rand.New(rand.NewSource(109)))
	want, err := Run(g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		got, err := Run(g, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Labels {
			if got.Labels[i] != want.Labels[i] {
				t.Fatalf("workers=%d: labels differ", w)
			}
		}
	}
}

// GenerationsPerIteration returns the synchronous steps one iteration
// costs in the n-cell design: two (n−1)-step scans, the log n shortcut,
// and four single-step phases.
func GenerationsPerIteration(n int) int {
	scan := n - 1
	if scan < 0 {
		scan = 0
	}
	return 2*scan + Log2Ceil(n) + 4
}

// TotalGenerations returns the full cost: 1 initialisation generation
// plus ⌈log₂ n⌉ iterations.
func TotalGenerations(n int) int {
	if n < 1 {
		return 0
	}
	return 1 + Log2Ceil(n)*GenerationsPerIteration(n)
}

func TestTotalGenerationsFormulaValues(t *testing.T) {
	// 1 + log n · (2(n−1) + log n + 4).
	cases := map[int]int{1: 1, 2: 1 + 1*(2+1+4), 4: 1 + 2*(6+2+4), 16: 1 + 4*(30+4+4)}
	for n, want := range cases {
		if got := TotalGenerations(n); got != want {
			t.Errorf("TotalGenerations(%d) = %d, want %d", n, got, want)
		}
	}
	if TotalGenerations(0) != 0 {
		t.Error("TotalGenerations(0) != 0")
	}
}
