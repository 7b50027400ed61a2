package core_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"gcacc/internal/core"
	"gcacc/internal/gca"
	"gcacc/internal/graph"
	"gcacc/internal/verify"
)

// fusedCorpus returns every conformance corpus graph at the sizes the
// chain battery covers, plus small hand-picked graphs for n < 4, which
// the corpus clamps up to 4.
func fusedCorpus() []verify.Case {
	var cases []verify.Case
	for _, n := range []int{1, 2, 3} {
		for _, g := range []*graph.Graph{graph.Empty(n), graph.Path(n), graph.Complete(n)} {
			cases = append(cases, verify.Case{Name: fmt.Sprintf("small/n=%d/m=%d", n, g.M()), Graph: g})
		}
	}
	for _, n := range []int{5, 8, 33, 64, 100, 128} {
		cases = append(cases, verify.Corpus(n, 1)...)
	}
	return cases
}

// TestFusedReduceMatchesStepped is the chain battery. It steps two
// kernel-path machines side by side: one through the paper's schedule,
// one through the chained schedule Run uses when nothing observes
// sub-generations. After every chain step the whole field, bottom row
// included, must equal the stepped field after the chain's last reduce
// sub-generation; every other step must agree too, in field and in
// counts. A chain step reports no active cells and no reads. Worker
// counts 2 and 4 shard the larger fields mid-row, which exercises the
// chain kernel's row-tail fold.
func TestFusedReduceMatchesStepped(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, c := range fusedCorpus() {
				checkFusedLockstep(t, c, workers)
			}
		})
	}
}

func checkFusedLockstep(t *testing.T, c verify.Case, workers int) {
	t.Helper()
	n := c.Graph.N()
	sched := core.Schedule(n, 0)
	chained := core.ChainSchedule(core.Schedule(n, 0))
	stepField := core.NewProgramFieldForTest(c.Graph)
	chainField := core.NewProgramFieldForTest(c.Graph)
	stepped := gca.NewMachine(stepField, core.NewProgramRule(n), gca.WithWorkers(workers))
	chaining := gca.NewMachine(chainField, core.NewChainRule(n), gca.WithWorkers(workers))

	var got, want []gca.Value
	j := 0
	for _, ctx := range chained {
		covered := 1
		if core.IsChain(ctx) {
			covered = core.ChainGenerations(n)
		}
		wantActive, wantReads := 0, 0
		for k := 0; k < covered; k++ {
			sc := sched[j]
			j++
			if sc.Iteration != ctx.Iteration || sc.Generation != ctx.Generation+min(k, 2) {
				t.Fatalf("%s: chained context %+v does not cover stepped context %+v", c.Name, ctx, sc)
			}
			s, err := stepped.Step(sc)
			if err != nil {
				t.Fatalf("%s: stepped %+v: %v", c.Name, sc, err)
			}
			wantActive, wantReads = s.Active, s.TotalReads
		}
		s, err := chaining.Step(ctx)
		if err != nil {
			t.Fatalf("%s: chained %+v: %v", c.Name, ctx, err)
		}
		got = chainField.Snapshot(got[:0])
		want = stepField.Snapshot(want[:0])
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s (workers=%d): after %+v: cell %d (row %d col %d) is %d, stepped %d",
					c.Name, workers, ctx, i, i/n, i%n, got[i], want[i])
			}
		}
		if covered > 1 {
			wantActive, wantReads = 0, 0
		}
		if s.Active != wantActive || s.TotalReads != wantReads {
			t.Fatalf("%s (workers=%d): after %+v: active=%d reads=%d, want active=%d reads=%d",
				c.Name, workers, ctx, s.Active, s.TotalReads, wantActive, wantReads)
		}
	}
	if j != len(sched) {
		t.Fatalf("%s: chained schedule covers %d of %d stepped contexts", c.Name, j, len(sched))
	}
}

// TestFusedRunMatchesObservedRun pins core.Run's two paths to each
// other: a default run commits each chain in one step, a run with a no-op
// observer steps every sub-generation, and both must return the same
// labels and the same generation count.
func TestFusedRunMatchesObservedRun(t *testing.T) {
	noop := gca.ObserverFunc(func(*gca.Field, *gca.StepStats) {})
	for _, workers := range []int{1, 2, 4} {
		for _, c := range fusedCorpus() {
			fused, err := core.Run(c.Graph, core.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			stepped, err := core.Run(c.Graph, core.Options{Workers: workers, Observer: noop})
			if err != nil {
				t.Fatal(err)
			}
			if fused.Generations != stepped.Generations {
				t.Fatalf("%s (workers=%d): generations %d fused, %d stepped",
					c.Name, workers, fused.Generations, stepped.Generations)
			}
			for i := range stepped.Labels {
				if fused.Labels[i] != stepped.Labels[i] {
					t.Fatalf("%s (workers=%d): label %d is %d fused, %d stepped",
						c.Name, workers, i, fused.Labels[i], stepped.Labels[i])
				}
			}
		}
	}
}

// TestObservedRunSeesEverySubGeneration pins that fusion never hides a
// sub-generation from anything that watches them: an observer, the
// per-generation records and the step hooks each see the paper's whole
// schedule, one entry per sub-generation.
func TestObservedRunSeesEverySubGeneration(t *testing.T) {
	for _, n := range []int{2, 5, 16} {
		g := graph.Path(n)
		sched := core.Schedule(n, 0)
		if len(sched) != core.TotalGenerations(n) {
			t.Fatalf("n=%d: schedule has %d contexts, closed form %d", n, len(sched), core.TotalGenerations(n))
		}
		checkSeen := func(what string, seen []gca.Context) {
			t.Helper()
			if len(seen) != len(sched) {
				t.Fatalf("n=%d %s: saw %d steps, want %d", n, what, len(seen), len(sched))
			}
			for i, ctx := range sched {
				if seen[i].Generation != ctx.Generation || seen[i].Sub != ctx.Sub || seen[i].Iteration != ctx.Iteration {
					t.Fatalf("n=%d %s: step %d ran %+v, want %+v", n, what, i, seen[i], ctx)
				}
			}
		}

		var observed []gca.Context
		res, err := core.Run(g, core.Options{Observer: gca.ObserverFunc(func(_ *gca.Field, s *gca.StepStats) {
			observed = append(observed, s.Ctx)
		})})
		if err != nil {
			t.Fatal(err)
		}
		checkSeen("observer", observed)
		if res.Generations != len(sched) {
			t.Fatalf("n=%d observer: %d generations, want %d", n, res.Generations, len(sched))
		}

		res, err = core.Run(g, core.Options{CollectStats: true})
		if err != nil {
			t.Fatal(err)
		}
		var recorded []gca.Context
		for _, r := range res.Records {
			recorded = append(recorded, gca.Context{Generation: r.Generation, Sub: r.Sub, Iteration: r.Iteration})
		}
		checkSeen("records", recorded)

		var hooked []gca.Context
		_, err = core.Run(g, core.Options{Hooks: gca.StepHooks{BeforeStep: func(ctx gca.Context) error {
			hooked = append(hooked, ctx)
			return nil
		}}})
		if err != nil {
			t.Fatal(err)
		}
		checkSeen("BeforeStep", hooked)
	}
}

// countdownCtx is a context whose Err reports cancellation from its
// (left+1)-th call on, which cancels a run at an exact committed step.
type countdownCtx struct {
	context.Context
	left, calls int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.left == 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestCancelChecksEveryCommittedStep pins cancellation on both paths: a
// run consults its context once per committed step — every step of the
// chained schedule, every sub-generation on the observed path — and a
// context cancelled mid-run aborts the run with the context's error.
func TestCancelChecksEveryCommittedStep(t *testing.T) {
	const n = 16
	g := graph.Path(n)
	noop := gca.ObserverFunc(func(*gca.Field, *gca.StepStats) {})
	for _, tc := range []struct {
		name  string
		opt   core.Options
		steps int
	}{
		{"chained", core.Options{}, len(core.ChainSchedule(core.Schedule(n, 0)))},
		{"observed", core.Options{Observer: noop}, core.TotalGenerations(n)},
	} {
		whole := &countdownCtx{Context: context.Background(), left: 1 << 30}
		tc.opt.Ctx = whole
		if _, err := core.Run(g, tc.opt); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if whole.calls != tc.steps {
			t.Fatalf("%s: context checked %d times, want once per committed step (%d)", tc.name, whole.calls, tc.steps)
		}

		mid := &countdownCtx{Context: context.Background(), left: tc.steps / 2}
		tc.opt.Ctx = mid
		_, err := core.Run(g, tc.opt)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: run cancelled mid-way returned %v, want context.Canceled", tc.name, err)
		}
		if mid.calls != tc.steps/2+1 {
			t.Fatalf("%s: run went on for %d checks after cancellation at check %d", tc.name, mid.calls, tc.steps/2+1)
		}
	}
}
