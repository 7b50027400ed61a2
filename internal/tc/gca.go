package tc

import (
	"gcacc/internal/gca"
	"gcacc/internal/graph"
)

// The two-handed GCA closure program.
//
// Field: n² cells, cell (i,j) at linear index i·n + j. The data word
// packs two bits: bit 0 is the current closure entry B(i,j); bit 1 is the
// accumulator of the running squaring.
//
// Generations:
//
//	init                 — d ← A(i,j) ∨ (i = j)          (reflexive)
//	scan  ×n subs        — hand 1 reads D(i,k), hand 2 reads D(k,j)
//	                       with k = sub; acc ∨= B(i,k) ∧ B(k,j)
//	commit               — B ← acc, acc ← 0
//
// The schedule repeats (scan, commit) ⌈log₂ n⌉ times: boolean squaring
// by scanning, using exactly the paper's two-handed cell variant.

const (
	bitMask = gca.Value(1)
	accMask = gca.Value(2)
)

// Generation ids of the GCA closure program.
const (
	genTCInit = iota
	genTCScan
	genTCCommit
)

type tcRule struct {
	n int
}

var (
	_ gca.Rule  = tcRule{}
	_ gca.Rule2 = tcRule{}
)

// Pointer implements hand 1: D(row, sub) during scans.
func (r tcRule) Pointer(ctx gca.Context, idx int, _ gca.Cell) int {
	if ctx.Generation != genTCScan {
		return gca.NoRead
	}
	row := idx / r.n
	return row*r.n + ctx.Sub
}

// Pointer2 implements hand 2: D(sub, col) during scans.
func (r tcRule) Pointer2(ctx gca.Context, idx int, _ gca.Cell) int {
	if ctx.Generation != genTCScan {
		return gca.NoRead
	}
	col := idx % r.n
	return ctx.Sub*r.n + col
}

// Update is required by the Rule interface but never used: the machine
// dispatches two-handed rules through Update2.
func (r tcRule) Update(_ gca.Context, _ int, self, _ gca.Cell) gca.Value {
	return self.D
}

// Update2 implements the data operations.
func (r tcRule) Update2(ctx gca.Context, idx int, self, g1, g2 gca.Cell) gca.Value {
	d := self.D
	switch ctx.Generation {
	case genTCInit:
		row, col := idx/r.n, idx%r.n
		if self.A == 1 || row == col {
			return bitMask
		}
		return 0
	case genTCScan:
		if g1.D&bitMask == 1 && g2.D&bitMask == 1 {
			return d | accMask
		}
		return d
	case genTCCommit:
		if d&accMask != 0 {
			return bitMask
		}
		return 0
	default:
		return d
	}
}

// GCAResult is the outcome of the two-handed GCA closure.
type GCAResult struct {
	Closure     *Closure
	Generations int
	Squarings   int
	// MaxDelta is the maximum per-cell read congestion observed (both
	// hands counted), when stats are enabled.
	MaxDelta int
}

// GCAOptions configures a GCA closure run.
type GCAOptions struct {
	Workers      int
	CollectStats bool
}

// GCA computes the closure on the two-handed GCA.
func GCA(g *graph.Graph, opt GCAOptions) (*GCAResult, error) {
	n := g.N()
	if n == 0 {
		return &GCAResult{Closure: &Closure{N: 0, Bits: graph.NewBitMatrix(0, 0)}}, nil
	}
	return GCAMatrix(g.Adjacency(), opt)
}
