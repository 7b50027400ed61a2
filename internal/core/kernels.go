package core

import (
	"fmt"
	"sync"

	"gcacc/internal/gca"
)

// This file is the bulk fast path of the Figure-2 program: one
// specialised evaluator per generation (gca.KernelRule) plus the
// per-generation active-region schedule (gca.KernelPlanner), operating
// directly on the field's raw struct-of-arrays slices instead of going
// through the per-cell Pointer/Update interface dispatch of rule.
//
// The machine invokes a kernel only on runs of plan-active cells, and
// every plan segment lies within a single row of the paper's (n+1)×n
// layout. That is the load-bearing contract of this file: a kernel may
// assume its whole [lo, hi) range shares one row (and, for the sparse
// column-0 generations, is a single cell), so all row/column arithmetic
// and per-row global operands (C(row), T(row), the row index itself)
// hoist out of the inner loop. The sweeps slice their run once and range
// over the window, so the loop carries no bounds checks, and they select
// values with min and conditional moves, so it carries no data-dependent
// branch. Passive cells never reach a kernel: the machine bulk-copies
// them (sweep mode) or skips them outright (span mode).
//
// Kernels follow the machine's buffer discipline (enforced by the
// bufferdiscipline analyzer): read cur and a, write exactly next[lo:hi],
// never alias. The lockstep tests in kernel_lockstep_test.go and
// plan_lockstep_test.go pin kernels + plans bit-identical — field
// contents, active counts and read counts — to the generic path for
// every committed sub-generation at several worker counts, and
// fused_test.go pins each chain step (chainRule) to the field the
// stepped generations leave.

var _ gca.KernelPlanner = rule{}

// kernelTable holds the kernels for one field size n, indexed by
// generation then sub-generation. Kernels are pure closures over n, so
// one table serves every machine and every step at that size; caching it
// process-wide removes the per-step closure allocations the old
// KernelFor paid (visible as alloc growth in the bench trajectory).
type kernelTable struct {
	byGen [][]gca.Kernel
}

// kernelCache maps field size n to its *kernelTable.
var kernelCache sync.Map

func kernelsFor(n int) *kernelTable {
	if t, ok := kernelCache.Load(n); ok {
		return t.(*kernelTable)
	}
	t, _ := kernelCache.LoadOrStore(n, buildKernelTable(n))
	return t.(*kernelTable)
}

func buildKernelTable(n int) *kernelTable {
	logn := Log2Ceil(n)
	one := func(k gca.Kernel) []gca.Kernel { return []gca.Kernel{k} }
	t := &kernelTable{byGen: make([][]gca.Kernel, GenFinalMin+1)}
	t.byGen[GenInit] = one(kernelInit(n))
	t.byGen[GenCopyC] = one(kernelBroadcast(n, false))
	t.byGen[GenCopyT] = one(kernelBroadcast(n, true))
	t.byGen[GenMaskAdj] = one(kernelMaskAdj(n))
	reduce := make([]gca.Kernel, logn)
	for s := range reduce {
		reduce[s] = kernelReduce(1 << uint(s))
	}
	t.byGen[GenReduceT] = reduce
	t.byGen[GenReduceT2] = reduce
	t.byGen[GenDefaultT] = one(kernelDefaultT(n))
	t.byGen[GenDefaultT2] = t.byGen[GenDefaultT]
	t.byGen[GenMaskComp] = one(kernelMaskComp(n))
	t.byGen[GenSpread] = one(kernelSpread(n))
	short := make([]gca.Kernel, logn)
	for s := range short {
		short[s] = kernelShortcut(n, s)
	}
	t.byGen[GenShortcut] = short
	t.byGen[GenFinalMin] = one(kernelFinalMin(n))
	return t
}

// KernelFor implements gca.KernelRule. The choice depends only on ctx, so
// every shard of a step agrees on the path taken; the lookup allocates
// nothing (the per-size table is built once, process-wide).
func (r rule) KernelFor(ctx gca.Context) gca.Kernel {
	t := kernelsFor(r.lay.N)
	if ctx.Generation < 0 || ctx.Generation >= len(t.byGen) {
		return nil
	}
	ks := t.byGen[ctx.Generation]
	if ctx.Sub < 0 || ctx.Sub >= len(ks) {
		return nil
	}
	return ks[ctx.Sub]
}

// PlanFor implements gca.KernelPlanner: the active region of each
// Figure-2 generation, straight from the paper's schedule (Table 1's
// active-cell account). Every region is a rectangle of the (n+1)×n
// layout, expressed as per-row segments so kernel runs never cross a row:
//
//	init/copyC/copyT   all n+1 rows            (copyT's bottom row reads and discards)
//	maskAdj/maskComp   the n square rows
//	reduce sub s       columns [0, n−2ˢ) of the square rows
//	chain 1 (subChain) all n+1 rows            (generations 1–3; D_N ← C)
//	chain 2 (subChain) the n square rows       (generations 5–7)
//	defaultT/shortcut/finalMin
//	                   column 0 of the square rows (n cells — span mode)
//	spread             columns [1, n) of the square rows
//
// Cells outside the region neither change state nor perform a global
// read, which the plan-lockstep battery and the congestion cross-check
// (plan size ≤ congestion.ActiveBound, ≥ observed Stats.Active) pin.
func (r rule) PlanFor(ctx gca.Context) gca.Plan {
	n := r.lay.N
	switch ctx.Generation {
	case GenInit, GenCopyC, GenCopyT:
		if ctx.Generation == GenCopyT && isChain(ctx) {
			return gca.Plan{Lo: 0, SegLen: n, Stride: n, Count: n} // chain 2 keeps D_N
		}
		return gca.Plan{Lo: 0, SegLen: n, Stride: n, Count: n + 1}
	case GenMaskAdj, GenMaskComp:
		return gca.Plan{Lo: 0, SegLen: n, Stride: n, Count: n}
	case GenReduceT, GenReduceT2:
		seg := n - 1<<uint(ctx.Sub)
		if seg < 0 {
			seg = 0
		}
		return gca.Plan{Lo: 0, SegLen: seg, Stride: n, Count: n}
	case GenDefaultT, GenDefaultT2, GenShortcut, GenFinalMin:
		return gca.Plan{Lo: 0, SegLen: 1, Stride: n, Count: n}
	case GenSpread:
		return gca.Plan{Lo: 1, SegLen: n - 1, Stride: n, Count: n}
	}
	return gca.Plan{} // unknown generation: declare the whole field
}

// GenerationPlan returns the active region the Figure-2 rule declares for
// one (generation, sub-generation) at size n — exactly what PlanFor hands
// the machine. Exported for the scheduling cross-checks in the congestion
// and conformance test tiers.
func GenerationPlan(n, gen, sub int) gca.Plan {
	return rule{lay: Layout{N: n}}.PlanFor(gca.Context{Generation: gen, Sub: sub})
}

// kernelInit is generation 0: d ← row(index) for every cell, no reads.
// The run shares one row, so the stored value is a single hoisted
// constant.
func kernelInit(n int) gca.Kernel {
	return func(lo, hi int, cur, next, _ []gca.Value) (int, int, error) {
		v := gca.Value(lo / n)
		active := 0
		for i := lo; i < hi; i++ {
			if cur[i] != v {
				active++
			}
			next[i] = v
		}
		return active, 0, nil
	}
}

// kernelBroadcast is generations 1 and 5: every cell reads D<col>[0]
// (p = col·n). Generation 1 stores it everywhere, bottom row included;
// generation 5 keeps the bottom row's state while still performing and
// counting the read (Table 1 "see gen. 1").
func kernelBroadcast(n int, keepBottom bool) gca.Kernel {
	nn := n * n
	return func(lo, hi int, cur, next, _ []gca.Value) (int, int, error) {
		if keepBottom && lo >= nn {
			copy(next[lo:hi], cur[lo:hi]) // reads performed and discarded
			return 0, hi - lo, nil
		}
		dst, src := next[lo:hi], cur[lo:hi]
		src = src[:len(dst)]
		active := 0
		cn := (lo % n) * n // col(i)·n, maintained incrementally
		for i := range dst {
			d, v := src[i], cur[cn]
			dst[i] = v
			if v != d {
				active++
			}
			cn += n
		}
		return active, hi - lo, nil
	}
}

// kernelMaskAdj is generation 2: square cells read C(row) from D_N[row]
// and keep C(col) only where A = 1 and the components differ. The plan
// excludes the bottom row, and the run's single C(row) operand is loaded
// once.
func kernelMaskAdj(n int) gca.Kernel {
	nn := n * n
	return func(lo, hi int, cur, next, a []gca.Value) (int, int, error) {
		cRow := cur[nn+lo/n]
		dst, src, adj := next[lo:hi], cur[lo:hi], a[lo:hi]
		src, adj = src[:len(dst)], adj[:len(dst)]
		active := 0
		for i := range dst {
			d := src[i]
			v := d
			if d == cRow {
				v = gca.Inf
			}
			if adj[i] != 1 {
				v = gca.Inf
			}
			dst[i] = v
			if v != d {
				active++
			}
		}
		return active, hi - lo, nil
	}
}

// kernelReduce is generations 3 and 7, one sub-generation of the row-wise
// tree min-reduction: cell (row, col) reads cell (row, col+step). The
// plan already stops the run at col = n−step, so the read never crosses
// the row boundary and the loop is an unconditional strided min.
func kernelReduce(step int) gca.Kernel {
	return func(lo, hi int, cur, next, _ []gca.Value) (int, int, error) {
		dst, src, far := next[lo:hi], cur[lo:hi], cur[lo+step:hi+step]
		src, far = src[:len(dst)], far[:len(dst)]
		active := 0
		for i := range dst {
			d := src[i]
			v := min(d, far[i])
			dst[i] = v
			if v != d {
				active++
			}
		}
		return active, hi - lo, nil
	}
}

// kernelDefaultT is generations 4 and 8: a column-0 square cell whose min
// came up ∞ takes C(row) from D_N[row]; the read happens either way. The
// plan makes each run exactly one column-0 cell.
func kernelDefaultT(n int) gca.Kernel {
	nn := n * n
	return func(lo, _ int, cur, next, _ []gca.Value) (int, int, error) {
		d := cur[lo]
		v := d
		if d == gca.Inf {
			v = cur[nn+lo/n]
		}
		next[lo] = v
		if v != d {
			return 1, 1, nil
		}
		return 0, 1, nil
	}
}

// kernelMaskComp is generation 6: square cells read C(col) from D_N[col]
// and keep T(col) exactly when C(col) = row and T(col) ≠ row. The plan
// excludes the bottom row, so the run's C(col) operands are the
// contiguous bottom-row slice under its columns.
func kernelMaskComp(n int) gca.Kernel {
	nn := n * n
	return func(lo, hi int, cur, next, _ []gca.Value) (int, int, error) {
		row := lo / n
		rv := gca.Value(row)
		col := lo - row*n
		dst, src, comp := next[lo:hi], cur[lo:hi], cur[nn+col:nn+col+hi-lo]
		src, comp = src[:len(dst)], comp[:len(dst)]
		active := 0
		for i := range dst {
			d := src[i]
			v := d
			if d == rv {
				v = gca.Inf
			}
			if comp[i] != rv {
				v = gca.Inf
			}
			dst[i] = v
			if v != d {
				active++
			}
		}
		return active, hi - lo, nil
	}
}

// kernelSpread is generation 9: square cells outside column 0 read T(row)
// from D<row>[0] and take it. The plan excludes column 0 and the bottom
// row, so the run's single T(row) operand is hoisted and the store loop
// is a fill.
func kernelSpread(n int) gca.Kernel {
	return func(lo, hi int, cur, next, _ []gca.Value) (int, int, error) {
		t := cur[lo/n*n]
		dst, src := next[lo:hi], cur[lo:hi]
		src = src[:len(dst)]
		active := 0
		for i := range dst {
			d := src[i]
			dst[i] = t
			if t != d {
				active++
			}
		}
		return active, hi - lo, nil
	}
}

// kernelShortcut is generation 10, one sub-generation of pointer
// shortcutting: a column-0 square cell reads D<C(row)>[0], i.e.
// C(C(row)). Each run is one cell under the plan.
func kernelShortcut(n, sub int) gca.Kernel {
	return func(lo, _ int, cur, next, _ []gca.Value) (int, int, error) {
		d := cur[lo]
		if d < 0 || d >= gca.Value(n) {
			return 0, 0, kernelRangeErr(GenShortcut, sub, lo, n)
		}
		v := cur[int(d)*n]
		next[lo] = v
		if v != d {
			return 1, 1, nil
		}
		return 0, 1, nil
	}
}

// kernelFinalMin is generation 11: a column-0 square cell reads
// D<C(row)>[1], which still holds T(C(row)) from generation 9, and takes
// the minimum. Each run is one cell under the plan.
func kernelFinalMin(n int) gca.Kernel {
	return func(lo, _ int, cur, next, _ []gca.Value) (int, int, error) {
		d := cur[lo]
		if d < 0 || d >= gca.Value(n) {
			return 0, 0, kernelRangeErr(GenFinalMin, 0, lo, n)
		}
		v := min(d, cur[int(d)*n+1])
		next[lo] = v
		if v != d {
			return 1, 1, nil
		}
		return 0, 1, nil
	}
}

// kernelRangeErr mirrors the generic path's out-of-range pointer error:
// rule.Pointer maps an invalid C value to lay.Size(), which the machine
// reports with exactly this message.
func kernelRangeErr(gen, sub, cell, n int) error {
	size := n * (n + 1)
	return fmt.Errorf("gca: generation %d sub %d: cell %d computed out-of-range pointer %d (field size %d)",
		gen, sub, cell, size, size)
}
