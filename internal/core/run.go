package core

import (
	"context"
	"fmt"
	"runtime"

	"gcacc/internal/gca"
	"gcacc/internal/graph"
)

// Options configures a run of the GCA program. Setting any of
// CollectStats, CapturePointers or Observer makes the run commit every
// sub-generation as its own step; without them the run commits
// 1 + 3·iterations steps (see Run).
type Options struct {
	// Ctx, if non-nil, is checked before every committed step: a
	// cancelled or expired context aborts the run with the context's
	// error. Nil means "never cancel".
	Ctx context.Context
	// Workers is the number of goroutines stepping the cell field;
	// values < 1 select GOMAXPROCS.
	Workers int
	// CollectStats enables per-generation active-cell and congestion
	// records (the measurements behind Table 1).
	CollectStats bool
	// CapturePointers additionally records the access pattern of every
	// generation (the data behind Figure 3). Implies nothing about
	// retention: attach an Observer to keep the data.
	CapturePointers bool
	// Observer, if non-nil, is invoked after every committed
	// sub-generation with the machine's field and step statistics.
	Observer gca.Observer
	// Hooks are optional per-step fault-injection points (latency,
	// worker stalls, forced transient errors) threaded into the machine;
	// they fire once per committed step, whichever steps the run
	// commits, and the zero value injects nothing. See internal/fault.
	Hooks gca.StepHooks
	// Iterations overrides the number of outer iterations; 0 selects the
	// paper's ⌈log₂ n⌉.
	Iterations int
}

// subChain is the Sub of a context that commits several of the paper's
// generations in one machine step: generation 1 (5) with this Sub
// commits generations 1–4 (5–8) — the broadcast, the mask, all ⌈log n⌉
// sub-generations of the min-reduce and the default — and generation 9
// commits generations 9–11, the spread, the ⌈log n⌉ shortcut
// sub-generations and the final min. Run issues them only when nothing
// observes sub-generations; the generic per-cell path has no
// counterpart, so only a chainRule's kernel evaluates them.
const subChain = -1

// chainStep is step k of the control sequence of an unobserved run:
// generation 0, then per iteration chain 1, chain 2 and the tail. Run
// computes it per step rather than allocating the sequence.
func chainStep(k int) gca.Context {
	if k == 0 {
		return gca.Context{Generation: GenInit, Iteration: -1}
	}
	gens := [...]int{GenCopyC, GenCopyT, GenSpread}
	return gca.Context{Generation: gens[(k-1)%3], Sub: subChain, Iteration: (k - 1) / 3}
}

// stepGenerations is the number of the paper's synchronous steps the
// committed step ctx covers.
func stepGenerations(ctx gca.Context, n int) int {
	switch {
	case ctx.Sub != subChain:
		return 1
	case ctx.Generation == GenSpread:
		return 2 + SubGenerations(n)
	default:
		return 3 + SubGenerations(n)
	}
}

// GenRecord summarises one committed sub-generation of a run.
type GenRecord struct {
	Iteration  int // outer iteration, 0-based; -1 for generation 0
	Generation int // generation id 0–11
	Sub        int // sub-generation within generations 3, 7, 10
	Step       int // step 1–6 of the reference algorithm
	Active     int // cells whose data field changed
	Reads      int // global read accesses performed
	MaxDelta   int // maximum read congestion δ (0 if stats disabled)
	Levels     []gca.CongestionLevel
}

// Result of a GCA connected-components run.
type Result struct {
	// Labels maps every node to the smallest node index of its component
	// (the paper's super node).
	Labels []int
	// N is the node count; the field had N·(N+1) cells.
	N int
	// Iterations is the number of outer iterations executed.
	Iterations int
	// Generations is the number of synchronous steps of the paper's
	// schedule the run executed, counting every sub-generation, also
	// when several generations were committed in one step (equals
	// TotalGenerations(n) when Options.Iterations was 0).
	Generations int
	// Records holds one entry per committed step when CollectStats was
	// set, in execution order.
	Records []GenRecord
}

// ConnectedComponents runs the paper's program on g with default options.
func ConnectedComponents(g *graph.Graph) (*Result, error) {
	return Run(g, Options{})
}

// Run executes the 12-generation GCA program of Figure 2 on the graph g.
func Run(g *graph.Graph, opt Options) (*Result, error) {
	n := g.N()
	if n == 0 {
		return &Result{Labels: []int{}, N: 0}, nil
	}
	lay := Layout{N: n}
	field := newProgramField(g, lay)

	// Five options at most, so the slice stays on the stack.
	mopts := make([]gca.Option, 0, 5)
	mopts = append(mopts, gca.WithWorkers(opt.Workers))
	if opt.CollectStats {
		mopts = append(mopts, gca.WithCongestion())
	}
	if opt.CapturePointers {
		mopts = append(mopts, gca.WithPointerCapture())
	}
	if opt.Observer != nil {
		mopts = append(mopts, gca.WithObserver(opt.Observer))
	}
	if opt.Hooks.BeforeStep != nil || opt.Hooks.WorkerStall != nil {
		mopts = append(mopts, gca.WithStepHooks(opt.Hooks))
	}

	iters := opt.Iterations
	if iters <= 0 {
		iters = Iterations(n)
	}

	// Nothing between the generations of a chain or the tail is
	// observable without stats, pointer capture or an observer, so such
	// a run commits generation 0, then per iteration each chain and the
	// tail as one step that sweeps every row once (chainRule), and
	// leaves the field the stepped generations leave. Hooks fire per
	// committed step either way. Any other run steps the canonical
	// control sequence, which Schedule shares with the conformance
	// harness.
	var r gca.Rule = rule{lay: lay}
	var sched []gca.Context
	steps := 1 + 3*iters
	if opt.CollectStats || opt.CapturePointers || opt.Observer != nil {
		sched = Schedule(n, iters)
		steps = len(sched)
	} else {
		r = newChainRule(lay)
	}
	machine := gca.NewMachine(field, r, mopts...)

	res := &Result{N: n, Iterations: iters}
	if opt.CollectStats {
		res.Records = make([]GenRecord, 0, steps)
	}
	step := func(ctx gca.Context) error {
		if opt.Ctx != nil {
			// A committed step is the run's cancellation point. The
			// single-worker step path runs inline without touching the
			// scheduler, so on GOMAXPROCS=1 the goroutine calling cancel
			// would otherwise starve until the run completes; yield first.
			runtime.Gosched()
			if err := opt.Ctx.Err(); err != nil {
				return fmt.Errorf("core: iteration %d generation %d: %w",
					ctx.Iteration, ctx.Generation, err)
			}
		}
		s, err := machine.Step(ctx)
		if err != nil {
			return fmt.Errorf("core: iteration %d generation %d sub %d: %w",
				ctx.Iteration, ctx.Generation, ctx.Sub, err)
		}
		res.Generations += stepGenerations(ctx, n)
		if opt.CollectStats {
			res.Records = append(res.Records, GenRecord{
				Iteration:  ctx.Iteration,
				Generation: ctx.Generation,
				Sub:        ctx.Sub,
				Step:       StepOfGeneration(ctx.Generation),
				Active:     s.Active,
				Reads:      s.TotalReads,
				MaxDelta:   s.MaxCongestion,
				Levels:     s.CongestionLevels(),
			})
		}
		return nil
	}

	for k := range steps {
		ctx := chainStep(k)
		if sched != nil {
			ctx = sched[k]
		}
		if err := step(ctx); err != nil {
			return nil, err
		}
	}

	// The component vector C lives in column 0 of the square field.
	res.Labels = make([]int, n)
	for j := 0; j < n; j++ {
		res.Labels[j] = int(field.Data(lay.ColumnZero(j)))
	}
	return res, nil
}

// newProgramField builds the (n+1)×n cell field of the Figure-2 program
// with the adjacency matrix loaded into the static a field of the square
// cells: cell (j,i).a = A(j,i). Shared by Run and the chain battery.
func newProgramField(g *graph.Graph, lay Layout) *gca.Field {
	field := gca.NewField(lay.Size())
	adj := g.Adjacency()
	cols := make([]int, 0, lay.N)
	for j := 0; j < lay.N; j++ {
		cols = adj.RowIndices(j, cols[:0])
		for _, i := range cols {
			field.SetCell(j*lay.N+i, gca.Cell{A: 1})
		}
	}
	return field
}

// ComponentCount returns the number of distinct labels in the result.
func (r *Result) ComponentCount() int {
	seen := make(map[int]struct{}, len(r.Labels))
	for _, l := range r.Labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}
