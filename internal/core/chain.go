package core

import "gcacc/internal/gca"

// chainRule is the Figure-2 rule of a run that nothing observes (see
// Run). Besides the paper's generations it commits each
// broadcast–mask–reduce chain as one step, under Sub = subChain:
//
//	chain 1, generations 1–3: square row j ← suffix-min, right to left,
//	         of C(c) where A(j,c) = 1 and C(c) ≠ C(j), else ∞; D_N ← C
//	chain 2, generations 5–7: square row j ← suffix-min of T(c) where
//	         C(c) = j (read from D_N) and T(c) ≠ j, else ∞; D_N keeps
//
// That is exactly the field the stepped chain leaves: generation 1 (5)
// broadcasts column 0 into every row, generation 2 (6) masks each cell
// by operands of its own row and column, and the ⌈log n⌉ reduce
// sub-generations leave every square row holding its suffix minimum,
// since 2^⌈log n⌉ ≥ n (DESIGN.md "Chained generations"). So once column
// 0 and D_N are known, each row depends on nothing but itself.
//
// Every cell of a broadcast reads column 0, with stride n. Prologue
// gathers it once per chain step into col0, so the row sweeps read it
// contiguously. The vector is this run's own: kernelsFor tables are
// shared by concurrent machines, so it cannot live there.
type chainRule struct {
	rule
	col0   []gca.Value // column 0 of the committed field: C for chain 1, T for chain 2
	comp   bool        // the step commits chain 2 (generations 5–7)
	kernel gca.Kernel  // sweepChain bound once, so KernelFor allocates nothing
}

var _ gca.KernelPrologue = (*chainRule)(nil)

func newChainRule(lay Layout) *chainRule {
	r := &chainRule{rule: rule{lay: lay}, col0: make([]gca.Value, lay.N)}
	r.kernel = r.sweepChain
	return r
}

// KernelFor implements gca.KernelRule: the chain kernel for a chain
// context, the paper's per-generation kernels otherwise.
func (r *chainRule) KernelFor(ctx gca.Context) gca.Kernel {
	if isChain(ctx) {
		return r.kernel
	}
	return r.rule.KernelFor(ctx)
}

// Prologue implements gca.KernelPrologue: before a chain step's shards
// start, it gathers column 0 of the committed field into col0.
func (r *chainRule) Prologue(ctx gca.Context, cur []gca.Value) {
	if !isChain(ctx) {
		return
	}
	n := r.lay.N
	for c := range r.col0 {
		r.col0[c] = cur[c*n]
	}
	r.comp = ctx.Generation == GenCopyT
}

// sweepChain commits one run [lo, hi) of a chain; PlanFor keeps every
// run inside one row. A shard may end the run mid-row, so the masked
// values of the row's tail seed the running minimum; they are computed
// from col0, a and D_N, never from the row's cur cells, which the chain
// overwrites. A chain step counts neither active cells nor reads: Run
// reads neither on the runs that chain.
func (r *chainRule) sweepChain(lo, hi int, cur, next, a []gca.Value) (int, int, error) {
	n := r.lay.N
	nn := n * n
	col := r.col0
	if lo >= nn { // chain 1's bottom row: D_N ← C
		copy(next[lo:hi], col[lo-nn:hi-nn])
		return 0, 0, nil
	}
	row := lo / n
	c0, c1 := lo-row*n, hi-row*n
	dst := next[lo:hi]
	m := gca.Inf
	if r.comp {
		// Generation 6 at (j, c): T(c) where C(c) = j and T(c) ≠ j, else ∞.
		j := gca.Value(row)
		comp := cur[nn : nn+n]
		for c := n - 1; c >= c1; c-- {
			v := col[c]
			if v == j || comp[c] != j {
				v = gca.Inf
			}
			m = min(m, v)
		}
		ts, cs := col[c0:c1], comp[c0:c1]
		ts, cs = ts[:len(dst)], cs[:len(dst)]
		for i := len(dst) - 1; i >= 0; i-- {
			v := ts[i]
			if v == j {
				v = gca.Inf
			}
			if cs[i] != j {
				v = gca.Inf
			}
			m = min(m, v)
			dst[i] = m
		}
		return 0, 0, nil
	}
	// Generation 2 at (j, c): C(c) where A(j,c) = 1 and C(c) ≠ C(j), else ∞.
	cj := col[row]
	adj := a[row*n : row*n+n]
	for c := n - 1; c >= c1; c-- {
		v := col[c]
		if v == cj || adj[c] != 1 {
			v = gca.Inf
		}
		m = min(m, v)
	}
	cs, as := col[c0:c1], adj[c0:c1]
	cs, as = cs[:len(dst)], as[:len(dst)]
	for i := len(dst) - 1; i >= 0; i-- {
		v := cs[i]
		if v == cj {
			v = gca.Inf
		}
		if as[i] != 1 {
			v = gca.Inf
		}
		m = min(m, v)
		dst[i] = m
	}
	return 0, 0, nil
}
