package sparse

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"gcacc/internal/gca"
)

// engineCorpus is the in-package differential corpus: every family the
// generators produce, at sizes where rounds and contention both matter.
func engineCorpus(t *testing.T) map[string]*Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	return map[string]*Graph{
		"empty":    New(100),
		"single":   New(1),
		"zero":     New(0),
		"path":     Path(1000),
		"cycle":    Cycle(1000),
		"star":     Star(1000),
		"matching": MatchingChain(1001),
		"random":   RandomEdges(2000, 4000, rng),
		"rmat":     RMAT(10, 3000, rng),
		"forest":   PlantedForest(1500, 9, rng),
	}
}

func checkLabels(t *testing.T, name string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d labels, want %d", name, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: label[%d] = %d, want %d", name, v, got[v], want[v])
		}
	}
}

func TestLiuTarjanVariantsVsUnionFind(t *testing.T) {
	for fam, g := range engineCorpus(t) {
		want := ConnectedComponentsUnionFind(g)
		for _, variant := range Variants() {
			res, err := LiuTarjan(g, Options{Variant: variant, Workers: 4})
			if err != nil {
				t.Fatalf("%s/%s: %v", fam, variant, err)
			}
			checkLabels(t, fam+"/"+variant.String(), res.Labels, want)
			if g.N() > 0 && res.Rounds < 1 {
				t.Fatalf("%s/%s: %d rounds", fam, variant, res.Rounds)
			}
		}
	}
}

func TestLogDiameterVsUnionFind(t *testing.T) {
	for fam, g := range engineCorpus(t) {
		want := ConnectedComponentsUnionFind(g)
		res, err := LogDiameter(g, Options{Workers: 4})
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		checkLabels(t, fam, res.Labels, want)
	}
}

// TestEnginesDeterministicAcrossWorkers pins the load-bearing property:
// bit-identical labels and round counts for every worker count, for all
// four Liu–Tarjan variants and the log-diameter engine.
func TestEnginesDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := RandomEdges(3000, 6000, rng)
	for _, variant := range Variants() {
		base, err := LiuTarjan(g, Options{Variant: variant, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8, 32} {
			res, err := LiuTarjan(g, Options{Variant: variant, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			checkLabels(t, "liutarjan/"+variant.String(), res.Labels, base.Labels)
			if res.Rounds != base.Rounds {
				t.Fatalf("liutarjan/%s rounds vary with workers: %d vs %d", variant, res.Rounds, base.Rounds)
			}
		}
	}
	baseLD, err := LogDiameter(g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 32} {
		ld, err := LogDiameter(g, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		checkLabels(t, "logdiameter", ld.Labels, baseLD.Labels)
		if ld.Rounds != baseLD.Rounds {
			t.Fatalf("logdiameter rounds vary with workers: %d vs %d", ld.Rounds, baseLD.Rounds)
		}
	}
}

// TestAllocsFlatInWorkers extends the stepping engine's allocation pin to
// the sparse engines: every parallel phase runs on the shared pool
// without allocating, so a run at 32 workers allocates at most two more
// objects than a run at one.
func TestAllocsFlatInWorkers(t *testing.T) {
	g := RandomEdges(3000, 6000, rand.New(rand.NewSource(9)))
	engines := map[string]func(workers int){
		"logdiameter": func(w int) { _, _ = LogDiameter(g, Options{Workers: w}) },
	}
	for _, v := range Variants() {
		engines["liutarjan/"+v.String()] = func(w int) { _, _ = LiuTarjan(g, Options{Workers: w, Variant: v}) }
	}
	for name, run := range engines {
		one := testing.AllocsPerRun(5, func() { run(1) })
		many := testing.AllocsPerRun(5, func() { run(32) })
		if many > one+2 {
			t.Errorf("%s: %.0f allocs per run at 32 workers, %.0f at 1; want at most +2", name, many, one)
		}
	}
}

// TestEnginesLeaveGraphIntact guards the alter phases' copy-on-run: the
// caller's edge list must survive an altering engine run.
func TestEnginesLeaveGraphIntact(t *testing.T) {
	g := Path(500)
	fp := g.Fingerprint()
	if _, err := LiuTarjan(g, Options{Variant: Variant{Extended: true, Alter: true}}); err != nil {
		t.Fatal(err)
	}
	if _, err := LogDiameter(g, Options{}); err != nil {
		t.Fatal(err)
	}
	if g.Fingerprint() != fp {
		t.Fatal("an engine run mutated the input graph")
	}
}

// TestRoundsLogarithmic pins the doubling argument: on a path, both
// engines converge in O(log n) rounds, not O(n).
func TestRoundsLogarithmic(t *testing.T) {
	g := Path(1 << 14)
	res, err := LiuTarjan(g, Options{Variant: DefaultVariant})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 40 {
		t.Fatalf("liutarjan needed %d rounds on a 16384-path", res.Rounds)
	}
	ld, err := LogDiameter(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ld.Rounds > 40 {
		t.Fatalf("logdiameter needed %d rounds on a 16384-path", ld.Rounds)
	}
}

func TestEngineContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := Path(100)
	if _, err := LiuTarjan(g, Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("liutarjan under cancelled ctx: %v", err)
	}
	if _, err := LogDiameter(g, Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("logdiameter under cancelled ctx: %v", err)
	}
}

func TestEngineHooks(t *testing.T) {
	g := Path(200)
	boom := errors.New("injected")

	// BeforeStep errors abort the run and surface unchanged.
	fail := gca.StepHooks{BeforeStep: func(gca.Context) error { return boom }}
	if _, err := LiuTarjan(g, Options{Hooks: fail}); !errors.Is(err, boom) {
		t.Fatalf("liutarjan BeforeStep error: %v", err)
	}
	if _, err := LogDiameter(g, Options{Hooks: fail}); !errors.Is(err, boom) {
		t.Fatalf("logdiameter BeforeStep error: %v", err)
	}

	// A failure after a few rounds also aborts; results from hooks that
	// never fire must match a hook-free run (stalls are pure delay).
	var steps, stalls atomic.Int64
	counted := gca.StepHooks{
		BeforeStep: func(gca.Context) error {
			if steps.Add(1) == 3 {
				return boom
			}
			return nil
		},
		WorkerStall: func(gca.Context, int) { stalls.Add(1) },
	}
	if _, err := LiuTarjan(g, Options{Hooks: counted, Workers: 2}); !errors.Is(err, boom) {
		t.Fatalf("mid-run BeforeStep error: %v", err)
	}
	if steps.Load() != 3 {
		t.Fatalf("BeforeStep fired %d times, want 3", steps.Load())
	}
	if stalls.Load() == 0 {
		t.Fatal("WorkerStall never fired")
	}

	want := ConnectedComponentsUnionFind(g)
	res, err := LiuTarjan(g, Options{
		Hooks:   gca.StepHooks{WorkerStall: func(gca.Context, int) {}},
		Workers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkLabels(t, "stalled", res.Labels, want)
}
