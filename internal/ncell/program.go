// Package ncell implements the design alternative the paper weighs and
// rejects in Section 3: Hirschberg's algorithm on a GCA with only n cells
// (one per graph node) instead of n²+n.
//
// With one cell per node, the min computations of steps 2 and 3 cannot be
// tree-reduced across a row of dedicated cells; a one-handed cell must
// *scan* the other cells sequentially, one global read per sub-generation.
// Each iteration therefore costs Θ(n) generations instead of Θ(log n) —
// total Θ(n log n) versus the paper's Θ(log² n) — while using Θ(n) cells
// instead of Θ(n²). The paper: "If plenty of cells are used they can be
// structured more simply and the execution time can be minimized. … We
// have decided for the n² case because we want to design and evaluate the
// GCA algorithm with the highest degree of parallelism."
//
// Two further structural contrasts fall out of the implementation and are
// verified by tests:
//
//   - scan congestion is 1 by construction (cell i reads (i+1+s) mod n in
//     sub-generation s — a rotation, hence a bijection), so the n-cell
//     design needs no congestion remedies for steps 2–3;
//   - every cell needs data-dependent pointers (the shortcut and final
//     min), i.e. all n cells are "extended cells" in the Section-4 sense,
//     and each cell's rule must embed its whole adjacency row — the cell
//     hosts Θ(n) configuration bits, illustrating the paper's remark that
//     hosting more than O(1) shared memory per cell strains the model.
//
// Cell state: the three fields (c, t, acc) packed into one data word.
package ncell

import (
	"context"
	"fmt"
	"runtime"

	"gcacc/internal/gca"
	"gcacc/internal/graph"
)

// Field packing: three 21-bit lanes in one 64-bit value. 21 bits hold
// node numbers up to 2^21−1 plus a dedicated ∞ code, far beyond any field
// the simulator can hold anyway.
const (
	laneBits = 21
	laneMask = (1 << laneBits) - 1
	// InfLane is the ∞ code inside the acc lane.
	InfLane = laneMask
	// MaxN is the largest supported node count.
	MaxN = InfLane - 1
)

func pack(c, t, acc int) gca.Value {
	return gca.Value(c&laneMask) | gca.Value(t&laneMask)<<laneBits | gca.Value(acc&laneMask)<<(2*laneBits)
}

func unpackC(v gca.Value) int   { return int(v) & laneMask }
func unpackT(v gca.Value) int   { return int(v>>laneBits) & laneMask }
func unpackAcc(v gca.Value) int { return int(v>>(2*laneBits)) & laneMask }

// Phases of the n-cell program. Each is one generation; the scan phases
// run n−1 sub-generations and the shortcut runs ⌈log₂ n⌉.
const (
	PhInit     = 0 // c ← i, t ← i, acc ← ∞
	PhScanC    = 1 // n−1 subs: acc ← min(acc, C(j)) where A(i,j)=1 ∧ C(j)≠C(i)
	PhSetT     = 2 // t ← (acc = ∞) ? c : acc; acc ← ∞
	PhScanT    = 3 // n−1 subs: acc ← min(acc, T(j)) where C(j)=i ∧ T(j)≠i
	PhSetT2    = 4 // t ← (acc = ∞) ? c : acc
	PhHook     = 5 // c ← t
	PhShortcut = 6 // log n subs: t ← T(t)
	PhFinalMin = 7 // c ← min(C(t), t)
)

// Log2Ceil mirrors the paper's log n.
func Log2Ceil(n int) int {
	k, p := 0, 1
	for p < n {
		p <<= 1
		k++
	}
	return k
}

// rule is the uniform n-cell rule with the adjacency matrix compiled in
// (the FPGA-configuration view of the GCA: the graph is part of the
// hardware, as in the paper's Section 4 and the Verilog emitter).
type rule struct {
	n   int
	adj *graph.BitMatrix
}

var _ gca.Rule = rule{}

func (r rule) scanTarget(idx, sub int) int {
	return (idx + 1 + sub) % r.n
}

// Pointer implements the access pattern of each phase.
func (r rule) Pointer(ctx gca.Context, idx int, self gca.Cell) int {
	switch ctx.Generation {
	case PhScanC, PhScanT:
		return r.scanTarget(idx, ctx.Sub)
	case PhShortcut, PhFinalMin:
		t := unpackT(self.D)
		if t < 0 || t >= r.n {
			return r.n // out of range; the machine reports it
		}
		return t
	default:
		return gca.NoRead
	}
}

// Update implements the data operation of each phase.
func (r rule) Update(ctx gca.Context, idx int, self, global gca.Cell) gca.Value {
	c, t, acc := unpackC(self.D), unpackT(self.D), unpackAcc(self.D)
	switch ctx.Generation {
	case PhInit:
		return pack(idx, idx, InfLane)

	case PhScanC:
		j := r.scanTarget(idx, ctx.Sub)
		cj := unpackC(global.D)
		if r.adj.Get(idx, j) && cj != c && cj < acc {
			acc = cj
		}
		return pack(c, t, acc)

	case PhSetT:
		if acc == InfLane {
			t = c
		} else {
			t = acc
		}
		// Seed the step-3 accumulator with the cell's own contribution:
		// the scan covers j ≠ i, but step 3's min ranges over all j with
		// C(j) = i, including j = i (a supervertex contributes its own T).
		acc = InfLane
		if c == idx && t != idx {
			acc = t
		}
		return pack(c, t, acc)

	case PhSetT2:
		if acc == InfLane {
			t = c
		} else {
			t = acc
		}
		return pack(c, t, InfLane)

	case PhScanT:
		cj, tj := unpackC(global.D), unpackT(global.D)
		if cj == idx && tj != idx && tj < acc {
			acc = tj
		}
		return pack(c, t, acc)

	case PhHook:
		return pack(t, t, acc)

	case PhShortcut:
		return pack(c, unpackT(global.D), acc)

	case PhFinalMin:
		ct := unpackC(global.D)
		if ct < t {
			c = ct
		} else {
			c = t
		}
		return pack(c, t, acc)

	default:
		return self.D
	}
}

// Options configures a run.
type Options struct {
	// Ctx, if non-nil, is checked between committed generations: a
	// cancelled or expired context aborts the run with the context's
	// error. Nil means "never cancel".
	Ctx context.Context
	// Workers is the simulator goroutine count (< 1 = GOMAXPROCS).
	Workers int
	// CollectStats gathers per-generation records.
	CollectStats bool
	// Hooks are optional per-step fault-injection points; the zero value
	// injects nothing. See internal/fault.
	Hooks gca.StepHooks
	// Iterations overrides the outer iteration count (0 = ⌈log₂ n⌉).
	Iterations int
}

// GenRecord summarises one committed step.
type GenRecord struct {
	Iteration int
	Phase     int
	Sub       int
	Active    int
	Reads     int
	MaxDelta  int
}

// Result of an n-cell run.
type Result struct {
	Labels      []int
	N           int
	Iterations  int
	Generations int
	Records     []GenRecord
}

// ConnectedComponents runs the n-cell program with default options.
func ConnectedComponents(g *graph.Graph) (*Result, error) {
	return Run(g, Options{})
}

// Run executes the n-cell GCA program on g.
func Run(g *graph.Graph, opt Options) (*Result, error) {
	n := g.N()
	if n == 0 {
		return &Result{Labels: []int{}}, nil
	}
	if n > MaxN {
		return nil, fmt.Errorf("ncell: n = %d exceeds the packed-lane limit %d", n, MaxN)
	}
	field := gca.NewField(n)
	var mopts []gca.Option
	mopts = append(mopts, gca.WithWorkers(opt.Workers))
	if opt.CollectStats {
		mopts = append(mopts, gca.WithCongestion())
	}
	if opt.Hooks.BeforeStep != nil || opt.Hooks.WorkerStall != nil {
		mopts = append(mopts, gca.WithStepHooks(opt.Hooks))
	}
	machine := gca.NewMachine(field, rule{n: n, adj: g.Adjacency()}, mopts...)

	iters := opt.Iterations
	if iters <= 0 {
		iters = Log2Ceil(n)
	}
	res := &Result{N: n, Iterations: iters}
	step := func(ctx gca.Context) error {
		if opt.Ctx != nil {
			// Yield so the goroutine calling cancel can run even on a
			// single-CPU scheduler; the inline step path never yields.
			runtime.Gosched()
			if err := opt.Ctx.Err(); err != nil {
				return fmt.Errorf("ncell: iteration %d phase %d: %w",
					ctx.Iteration, ctx.Generation, err)
			}
		}
		s, err := machine.Step(ctx)
		if err != nil {
			return fmt.Errorf("ncell: iteration %d phase %d sub %d: %w",
				ctx.Iteration, ctx.Generation, ctx.Sub, err)
		}
		res.Generations++
		if opt.CollectStats {
			res.Records = append(res.Records, GenRecord{
				Iteration: ctx.Iteration,
				Phase:     ctx.Generation,
				Sub:       ctx.Sub,
				Active:    s.Active,
				Reads:     s.TotalReads,
				MaxDelta:  s.MaxCongestion,
			})
		}
		return nil
	}

	if err := step(gca.Context{Generation: PhInit, Iteration: -1}); err != nil {
		return nil, err
	}
	scanSubs := n - 1
	logn := Log2Ceil(n)
	for it := 0; it < iters; it++ {
		phases := []struct{ phase, subs int }{
			{PhScanC, scanSubs},
			{PhSetT, 1},
			{PhScanT, scanSubs},
			{PhSetT2, 1},
			{PhHook, 1},
			{PhShortcut, logn},
			{PhFinalMin, 1},
		}
		for _, ph := range phases {
			for sub := 0; sub < ph.subs; sub++ {
				if err := step(gca.Context{Generation: ph.phase, Sub: sub, Iteration: it}); err != nil {
					return nil, err
				}
			}
		}
	}

	res.Labels = make([]int, n)
	for i := 0; i < n; i++ {
		res.Labels[i] = unpackC(field.Data(i))
	}
	return res, nil
}
