package core

import (
	"fmt"

	"gcacc/internal/gca"
)

// chainRule is the Figure-2 rule of a run that nothing observes (see
// Run). Such a run commits 1 + 3·iterations steps, each through a bulk
// kernel over the field's raw slices:
//
//	generation 0:  d ← row(index) everywhere
//	chain 1, generations 1–4: square row j ← suffix-min, right to left,
//	         of C(c) where A(j,c) = 1 and C(c) ≠ C(j), else ∞; column 0
//	         takes C(j) where that minimum is ∞; D_N ← C
//	chain 2, generations 5–8: square row j ← suffix-min of T(c) where
//	         C(c) = j (read from D_N) and T(c) ≠ j, else ∞; column 0
//	         takes D_N[j] = C(j) where that minimum is ∞; D_N keeps
//	tail, generations 9–11: columns 1…n−1 of square row j ← T(j);
//	         column 0 ← min(x(j), T(x(j))), where x is T after ⌈log n⌉
//	         synchronous jumps x ← x[x]; D_N keeps
//
// Each is exactly the field the stepped generations leave. A broadcast
// and a mask leave every cell of a row depending only on column 0, D_N
// and the row's own a cells, and the ⌈log n⌉ reduce sub-generations
// leave every square row holding its suffix minimum, since 2^⌈log n⌉ ≥ n
// (DESIGN.md "Chained generations"). Generations 4, 8, 10 and 11 touch
// column 0 alone, so the step that precedes them can take them along.
//
// Every cell of a broadcast reads column 0, with stride n. Prologue
// gathers it once per step into col0, so the row sweeps read it
// contiguously; for the tail it also runs the jumps on two vectors of
// its own. The vectors are this run's: a rule with a prologue belongs to
// one machine.
type chainRule struct {
	rule
	col0 []gca.Value    // column 0 of the committed field: C for chain 1, T for chains 2 and tail
	jump [2][]gca.Value // the tail's pointer-jumping buffers
	c    []gca.Value    // the tail's new column 0, one of jump
	step int            // the kind of the step Prologue set up

	// The kernels, bound once so KernelFor allocates nothing. Each is its
	// own small function: in one large one the compiler spills the inner
	// loops' registers.
	chain, fill gca.Kernel
}

// The kinds of step a chained run commits.
const (
	stepInit = iota
	stepChain1
	stepChain2
	stepTail
)

var _ gca.KernelPrologue = (*chainRule)(nil)

func newChainRule(lay Layout) *chainRule {
	n := lay.N
	b := make([]gca.Value, 3*n)
	r := &chainRule{
		rule: rule{lay: lay},
		col0: b[:n:n],
		jump: [2][]gca.Value{b[n : 2*n : 2*n], b[2*n:]},
	}
	r.chain, r.fill = r.sweepChain, r.sweepFill
	return r
}

// KernelFor implements gca.KernelRule: sweepFill for generation 0 and
// the tail, sweepChain for the chains; any other context steps the
// generic rule.
func (r *chainRule) KernelFor(ctx gca.Context) gca.Kernel {
	switch {
	case ctx.Generation == GenInit, ctx.Sub == subChain && ctx.Generation == GenSpread:
		return r.fill
	case ctx.Sub == subChain:
		return r.chain
	}
	return nil
}

// Prologue implements gca.KernelPrologue: before a step's shards start,
// it records the kind of step, gathers column 0 of the committed field
// into col0 and, for the tail, computes the new column 0. An
// out-of-range T aborts the tail with the error the generic path reports
// at the first shortcut sub-generation (the final min when there is
// none), before any cell is written.
func (r *chainRule) Prologue(ctx gca.Context, cur []gca.Value) error {
	switch {
	case ctx.Generation == GenInit:
		r.step = stepInit
		return nil
	case ctx.Generation == GenCopyC:
		r.step = stepChain1
	case ctx.Generation == GenCopyT:
		r.step = stepChain2
	default:
		r.step = stepTail
	}
	n := r.lay.N
	t := r.col0
	for c := range t {
		t[c] = cur[c*n]
	}
	if r.step != stepTail {
		return nil
	}
	subs := SubGenerations(n)
	for j, p := range t {
		if p < 0 || p >= gca.Value(n) {
			// rule.Pointer maps an invalid C value to lay.Size(), which the
			// machine reports with exactly this message.
			gen, size := GenShortcut, r.lay.Size()
			if subs == 0 {
				gen = GenFinalMin
			}
			return fmt.Errorf("gca: generation %d sub 0: cell %d computed out-of-range pointer %d (field size %d)",
				gen, j*n, size, size)
		}
	}
	x, y := r.jump[0], r.jump[1]
	copy(x, t)
	for range subs {
		for j, p := range x {
			y[j] = x[p]
		}
		x, y = y, x
	}
	for j, p := range x {
		y[j] = min(p, t[p])
	}
	r.c = y
	return nil
}

// sweepFill commits the shard [lo, hi) of generation 0 or the tail.
// Both fill each square row with one value and its column 0 with
// another: row j with j for generation 0, and with T(j) and its new
// column 0 for the tail. A shard may start or end mid-row. D_N takes
// its row index n in generation 0 and keeps its state in the tail. A
// chained run's steps count neither active cells nor reads: Run reads
// neither on the runs that chain.
func (r *chainRule) sweepFill(lo, hi int, cur, next, _ []gca.Value) (int, int, error) {
	n := r.lay.N
	nn := n * n
	tail := r.step == stepTail
	// D_N first, so nothing but the return follows the row loop: values
	// live after it make the compiler reload them inside the fill loop.
	if b := max(lo, nn); b < hi {
		if tail {
			copy(next[b:hi], cur[b:hi])
		} else {
			dst := next[b:hi]
			for k := range dst {
				dst[k] = gca.Value(n)
			}
		}
	}
	end := min(hi, nn)
	for i := lo; i < end; {
		row := i / n
		v, v0 := gca.Value(row), gca.Value(row)
		if tail {
			v, v0 = r.col0[row], r.c[row]
		}
		if i == row*n {
			next[i] = v0
			i++
		}
		rowEnd := min(row*n+n, end)
		dst := next[i:rowEnd]
		for k := range dst {
			dst[k] = v
		}
		i = rowEnd
	}
	return 0, 0, nil
}

// sweepChain commits the shard [lo, hi) of chain 1 or chain 2, row by
// row; a shard may start or end mid-row. D_N takes C in chain 1 and
// keeps its state in chain 2.
func (r *chainRule) sweepChain(lo, hi int, cur, next, a []gca.Value) (int, int, error) {
	n := r.lay.N
	nn := n * n
	col := r.col0
	chain2 := r.step == stepChain2
	// D_N first, as in sweepFill.
	if b := max(lo, nn); b < hi {
		if chain2 {
			copy(next[b:hi], cur[b:hi])
		} else {
			copy(next[b:hi], col[b-nn:hi-nn])
		}
	}
	end := min(hi, nn)
	for i := lo; i < end; {
		row := i / n
		base := row * n
		rowEnd := min(base+n, end)
		// Chain 1: generation 2 at (row, c) keeps C(c) where A(row,c) = 1
		// and C(c) ≠ C(row), else ∞, and generation 4 stores C(row) in
		// column 0 where the row minimum is ∞. Chain 2: generation 6
		// keeps T(c) where C(c) = row (read from D_N) and T(c) ≠ row,
		// else ∞, and generation 8 stores D_N[row] = C(row). In both the
		// mask drops col[c] = self and key[c] ≠ want, and the reduce
		// leaves suffix minima, right to left.
		self, key, want, def := col[row], a[base:base+n], gca.Value(1), col[row]
		if chain2 {
			self, key, want, def = gca.Value(row), cur[nn:nn+n], gca.Value(row), cur[nn+row]
		}
		// A shard may end the row early: the masked values right of it
		// seed the running minimum. They come from col and key, never
		// from the row's cur cells, which the chain overwrites.
		m := gca.Inf
		for c := n - 1; c >= rowEnd-base; c-- {
			v := col[c]
			if v == self || key[c] != want {
				v = gca.Inf
			}
			m = min(m, v)
		}
		dst := next[i:rowEnd]
		vs, ks := col[i-base:rowEnd-base], key[i-base:rowEnd-base]
		vs, ks = vs[:len(dst)], ks[:len(dst)]
		for k := len(dst) - 1; k >= 0; k-- {
			v := vs[k]
			if v == self {
				v = gca.Inf
			}
			if ks[k] != want {
				v = gca.Inf
			}
			m = min(m, v)
			dst[k] = m
		}
		if i == base && m == gca.Inf {
			dst[0] = def
		}
		i = rowEnd
	}
	return 0, 0, nil
}
