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

// TestFusedReduceMatchesStepped is the chain battery. It steps a
// chained machine through the schedule Run uses when nothing observes
// sub-generations — generation 0, then per iteration chain 1
// (generations 1–4), chain 2 (5–8) and the tail (9–11) — beside a
// generic machine stepping the paper's schedule. After every committed
// chained step the whole field, bottom row included, must equal the
// generic field after the last sub-generation the step covers. Worker
// counts 2 and 4 shard the larger fields mid-row, which exercises the
// kernel's row walk and the chains' row-tail fold.
func TestFusedReduceMatchesStepped(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, c := range fusedCorpus() {
				checkChainedLockstep(t, c.Name, c.Graph, workers)
			}
		})
	}
}

// checkChainedLockstep is the judge shared by the chain battery and
// FuzzChainedMatchesGeneric. It runs at least one iteration, so n = 1,
// whose default run is generation 0 alone, still reaches the chains and
// the tail.
func checkChainedLockstep(t *testing.T, name string, g *graph.Graph, workers int) {
	t.Helper()
	n := g.N()
	iters := max(core.Iterations(n), 1)
	sched := core.Schedule(n, iters)
	chained := core.ChainSchedule(iters)
	stepField := core.NewProgramFieldForTest(g)
	chainField := core.NewProgramFieldForTest(g)
	stepped := gca.NewMachine(stepField, core.NewProgramRule(n), gca.WithWorkers(workers))
	chaining := gca.NewMachine(chainField, core.NewChainRule(n), gca.WithWorkers(workers))

	var got, want []gca.Value
	j := 0
	for _, ctx := range chained {
		covered := core.StepGenerations(ctx, n)
		if sc := sched[j]; sc.Iteration != ctx.Iteration || sc.Generation != ctx.Generation {
			t.Fatalf("%s: chained context %+v does not start at stepped context %+v", name, ctx, sc)
		}
		for _, sc := range sched[j : j+covered] {
			if _, err := stepped.Step(sc); err != nil {
				t.Fatalf("%s: stepped %+v: %v", name, sc, err)
			}
		}
		j += covered
		if _, err := chaining.Step(ctx); err != nil {
			t.Fatalf("%s: chained %+v: %v", name, ctx, err)
		}
		got = chainField.Snapshot(got[:0])
		want = stepField.Snapshot(want[:0])
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s (workers=%d): after %+v: cell %d (row %d col %d) is %d, stepped %d",
					name, workers, ctx, i, i/n, i%n, got[i], want[i])
			}
		}
	}
	if j != len(sched) {
		t.Fatalf("%s: chained schedule covers %d of %d stepped contexts", name, j, len(sched))
	}
}

// TestKernelShortcutRangeError pins the tail step's error to the generic
// path's: an out-of-range C value in column 0 must abort the tail with
// the message the generic rule reports at the first shortcut
// sub-generation (at the final min for n = 1, which has none), and leave
// the field and the tick as they were. At n = 40 four workers shard the
// field.
func TestKernelShortcutRangeError(t *testing.T) {
	for _, n := range []int{1, 4, 40} {
		lay := core.Layout{N: n}
		load := func() *gca.Field {
			f := gca.NewField(lay.Size())
			for j := 0; j < n; j++ {
				f.SetData(lay.ColumnZero(j), gca.Value(j))
			}
			f.SetData(lay.ColumnZero(n-1), gca.Value(n+3))
			f.SetData(lay.ColumnZero(n/2), -1)
			return f
		}

		var want error
		generic := gca.NewMachine(load(), core.NewProgramRule(n), gca.WithWorkers(4))
		for _, ctx := range core.Schedule(n, 1) {
			if ctx.Generation < core.GenSpread {
				continue
			}
			if _, want = generic.Step(ctx); want != nil {
				break
			}
		}
		if want == nil {
			t.Fatalf("n=%d: the generic path did not report the invalid C value", n)
		}

		field := load()
		before := field.Snapshot(nil)
		m := gca.NewMachine(field, core.NewChainRule(n), gca.WithWorkers(4))
		_, err := m.Step(gca.Context{Generation: core.GenSpread, Sub: core.SubChain})
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("n=%d: tail step error %v, want the generic path's %q", n, err, want)
		}
		if m.Tick() != 0 {
			t.Fatalf("n=%d: tick advanced to %d on an aborted tail step", n, m.Tick())
		}
		for i, v := range field.Snapshot(nil) {
			if v != before[i] {
				t.Fatalf("n=%d: cell %d changed across an aborted tail step: %d -> %d", n, i, before[i], v)
			}
		}
	}
}

// FuzzChainedMatchesGeneric is checkChainedLockstep on decoded graphs:
// the first byte picks n in 1…40, the second 1–4 workers, and the bits
// of the rest fill the adjacency matrix's upper triangle row by row
// (missing bytes are zero). Fields of n ≥ 22 with two or more workers
// are sharded, mostly mid-row.
func FuzzChainedMatchesGeneric(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{1, 1, 0x01})
	f.Add([]byte{39, 3, 0x5a, 0xc3, 0x0f, 0xf0, 0x33})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, workers := 1+int(data[0])%40, 1+int(data[1])%4
		bits := data[2:]
		g := graph.New(n)
		k := 0
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if k/8 < len(bits) && bits[k/8]>>(k%8)&1 == 1 {
					g.AddEdge(u, v)
				}
				k++
			}
		}
		checkChainedLockstep(t, fmt.Sprintf("n=%d/m=%d", n, g.M()), g, workers)
	})
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

// TestObservedRunSeesEverySubGeneration pins that chaining never hides
// a sub-generation from anything that watches them: an observer and the
// per-generation records each see the paper's whole schedule, one entry
// per sub-generation.
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
	}
}

// TestHookedRunTakesChainedPath pins that step hooks never force
// stepping: a run with hooks commits the chained schedule, BeforeStep
// fires once per committed step, 1 + 3·⌈log n⌉ times, and chain and
// tail contexts carry Sub = SubChain. The run still accounts for every
// generation of the paper's schedule.
func TestHookedRunTakesChainedPath(t *testing.T) {
	for _, n := range []int{2, 5, 16} {
		want := core.ChainSchedule(core.Iterations(n))
		if len(want) != 1+3*core.Log2Ceil(n) {
			t.Fatalf("n=%d: chained schedule has %d steps, want %d", n, len(want), 1+3*core.Log2Ceil(n))
		}
		var hooked []gca.Context
		stalls := 0
		res, err := core.Run(graph.Path(n), core.Options{Workers: 1, Hooks: gca.StepHooks{
			BeforeStep: func(ctx gca.Context) error {
				hooked = append(hooked, ctx)
				return nil
			},
			WorkerStall: func(gca.Context, int) { stalls++ },
		}})
		if err != nil {
			t.Fatal(err)
		}
		if len(hooked) != len(want) || stalls != len(want) {
			t.Fatalf("n=%d: BeforeStep fired %d times and WorkerStall %d, want once per committed step (%d)",
				n, len(hooked), stalls, len(want))
		}
		for i, ctx := range want {
			got := hooked[i]
			if got.Generation != ctx.Generation || got.Sub != ctx.Sub || got.Iteration != ctx.Iteration {
				t.Fatalf("n=%d: step %d ran %+v, want %+v", n, i, got, ctx)
			}
			if ctx.Generation != core.GenInit && got.Sub != core.SubChain {
				t.Fatalf("n=%d: step %d has Sub %d, want SubChain", n, i, got.Sub)
			}
		}
		if res.Generations != core.TotalGenerations(n) {
			t.Fatalf("n=%d: %d generations, want %d", n, res.Generations, core.TotalGenerations(n))
		}
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
		{"chained", core.Options{}, 1 + 3*core.Iterations(n)},
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
