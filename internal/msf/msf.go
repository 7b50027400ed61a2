// Package msf maps Borůvka's minimum-spanning-forest algorithm onto the
// Global Cellular Automaton using exactly the paper's methodology — the
// demonstration that the Hirschberg mapping is a *recipe*, not a one-off:
//
//   - the same (n+1)×n cell field (aux field a = the edge weight instead
//     of the adjacency bit);
//   - the same copy → mask → tree-min → copy → mask → tree-min skeleton,
//     with the min taken over weight-encoded edges (w·n² + u·n + v,
//     normalised so the tie-break is a function of the undirected edge);
//   - the same hook / pointer-jump / mutual-minimum resolution tail
//     (generations 9–11 of Figure 2), because hooking along strictly
//     minimal encoded weights produces the same trees-plus-2-cycles
//     shape;
//   - and therefore the same closed form: one round costs 3·log n + 8
//     generations, and ⌈log₂ n⌉ rounds suffice — 1 + log n·(3·log n + 8)
//     total, identical to the paper's Section 3 bound.
//
// The only structural novelty is the two-generation hook decode (the
// component-best cell must translate its encoded edge into the other
// endpoint's component label with one-handed reads; labels < n and
// encodings ≥ n² share the data field unambiguously).
package msf

import (
	"fmt"

	"gcacc/internal/core"
	"gcacc/internal/gca"
	"gcacc/internal/graph"
)

// Generation ids (12, mirroring Figure 2's structure).
const (
	GenInit        = 0  // d ← row(index)
	GenCopyC       = 1  // broadcast C from column 0 (incl. D_N)
	GenMaskEdges   = 2  // d ← enc(w, row, col) where w>0 ∧ C(col)≠C(row), else ∞
	GenReduceV     = 3  // log n subs: per-vertex min encoded edge → column 0
	GenCopyBest    = 4  // broadcast per-vertex best from column 0 across rows
	GenMaskMembers = 5  // keep Ê(col) iff C(col) = row, else ∞
	GenReduceC     = 6  // log n subs: per-component min encoded edge → column 0
	GenHookA       = 7  // column 0: resolve C(u) (or default C(row) on ∞)
	GenHookB       = 8  // column 0: resolve C(v) where still encoded
	GenSpreadT     = 9  // spread T across rows (column 1 feeds generation 11)
	GenShortcut    = 10 // log n subs: C(i) ← C(C(i))
	GenFinalMin    = 11 // C(i) ← min(C(i), T(C(i)))
)

type rule struct {
	lay core.Layout
}

var _ gca.Rule = rule{}

// enc packs (w, u, v) with u < v; all encodings are ≥ n² and labels are
// < n, so a data word's magnitude identifies its kind.
func encode(n int, w gca.Value, u, v int) gca.Value {
	if v < u {
		u, v = v, u
	}
	return w*gca.Value(n)*gca.Value(n) + gca.Value(u)*gca.Value(n) + gca.Value(v)
}

func (r rule) Pointer(ctx gca.Context, idx int, self gca.Cell) int {
	n := r.lay.N
	row, col := idx/n, idx%n
	switch ctx.Generation {
	case GenCopyC, GenCopyBest:
		return col * n
	case GenMaskEdges:
		if row == n {
			return gca.NoRead
		}
		return n*n + row
	case GenReduceV, GenReduceC:
		if row == n {
			return gca.NoRead
		}
		step := 1 << uint(ctx.Sub)
		if col+step >= n {
			return gca.NoRead
		}
		return idx + step
	case GenMaskMembers:
		if row == n {
			return gca.NoRead
		}
		return n*n + col
	case GenHookA:
		if col != 0 || row == n {
			return gca.NoRead
		}
		if self.D == gca.Inf {
			return n*n + row // read C(row), the no-merge default
		}
		u := int(self.D % gca.Value(n*n) / gca.Value(n))
		return n*n + u // read C(u) from D_N
	case GenHookB:
		if col != 0 || row == n || self.D < gca.Value(n*n) {
			return gca.NoRead // already a label
		}
		v := int(self.D % gca.Value(n))
		return n*n + v // read C(v) from D_N
	case GenSpreadT:
		if row == n || col == 0 {
			return gca.NoRead
		}
		return row * n
	case GenShortcut:
		if col == 0 && row != n {
			if self.D < 0 || self.D >= gca.Value(n) {
				return r.lay.Size()
			}
			return int(self.D) * n
		}
		return gca.NoRead
	case GenFinalMin:
		if col == 0 && row != n {
			if self.D < 0 || self.D >= gca.Value(n) {
				return r.lay.Size()
			}
			return int(self.D)*n + 1
		}
		return gca.NoRead
	}
	return gca.NoRead
}

func (r rule) Update(ctx gca.Context, idx int, self, global gca.Cell) gca.Value {
	n := r.lay.N
	row, col := idx/n, idx%n
	d, dStar := self.D, global.D
	switch ctx.Generation {
	case GenInit:
		return gca.Value(row)
	case GenCopyC:
		return dStar
	case GenMaskEdges:
		// d = C(col), d* = C(row), a = w(row, col).
		if row == n {
			return d
		}
		if self.A > 0 && d != dStar {
			return encode(n, self.A, row, col)
		}
		return gca.Inf
	case GenReduceV, GenReduceC:
		if row != n && dStar < d {
			return dStar
		}
		return d
	case GenCopyBest:
		if row == n {
			return d
		}
		return dStar
	case GenMaskMembers:
		// d = Ê(col) (encoded or ∞), d* = C(col).
		if row == n {
			return d
		}
		if dStar == gca.Value(row) {
			return d
		}
		return gca.Inf
	case GenHookA:
		if col != 0 || row == n {
			return d
		}
		if d == gca.Inf {
			return dStar // C(row): no merge
		}
		if dStar == gca.Value(row) {
			return d // C(u) is us; generation 8 resolves C(v)
		}
		return dStar // T(row) = C(u)
	case GenHookB:
		if col != 0 || row == n || d < gca.Value(n*n) {
			return d
		}
		return dStar // T(row) = C(v)
	case GenSpreadT:
		if row == n || col == 0 {
			return d
		}
		return dStar
	case GenShortcut:
		if col == 0 && row != n {
			return dStar
		}
		return d
	case GenFinalMin:
		if col == 0 && row != n {
			return gca.MinValue(d, dStar)
		}
		return d
	}
	return d
}

// Options configures a run.
type Options struct {
	Workers int
}

// Result of a GCA MSF run.
type Result struct {
	// MSF is the minimum spanning forest.
	MSF *graph.MSF
	// Labels is the super-node component labelling.
	Labels []int
	// Rounds is the number of Borůvka rounds executed (≤ ⌈log₂ n⌉).
	Rounds int
	// Generations is the number of synchronous steps.
	Generations int
}

// Run computes the minimum spanning forest of a weighted graph on the
// GCA.
func Run(g *graph.Weighted, opt Options) (*Result, error) {
	n := g.N()
	if n == 0 {
		return &Result{MSF: &graph.MSF{}, Labels: []int{}}, nil
	}
	maxW := int64(0)
	for _, e := range g.Edges() {
		if e.W > maxW {
			maxW = e.W
		}
	}
	if maxW > (1<<61)/int64(n*n+1) {
		return nil, fmt.Errorf("msf: weights up to %d overflow the encoding for n=%d", maxW, n)
	}

	lay := core.Layout{N: n}
	field := gca.NewField(lay.Size())
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			field.SetCell(lay.Index(j, i), gca.Cell{A: gca.Value(g.Weight(j, i))})
		}
	}
	machine := gca.NewMachine(field, rule{lay: lay}, gca.WithWorkers(opt.Workers))

	res := &Result{MSF: &graph.MSF{}}
	step := func(gen, sub, iter int) error {
		_, err := machine.Step(gca.Context{Generation: gen, Sub: sub, Iteration: iter})
		if err != nil {
			return fmt.Errorf("msf: generation %d sub %d: %w", gen, sub, err)
		}
		res.Generations++
		return nil
	}

	if err := step(GenInit, 0, -1); err != nil {
		return nil, err
	}
	subs := core.SubGenerations(n)
	chosen := map[[2]int]bool{}
	for round := 0; round < core.Iterations(n); round++ {
		for _, gen := range []int{GenCopyC, GenMaskEdges} {
			if err := step(gen, 0, round); err != nil {
				return nil, err
			}
		}
		for s := 0; s < subs; s++ {
			if err := step(GenReduceV, s, round); err != nil {
				return nil, err
			}
		}
		for _, gen := range []int{GenCopyBest, GenMaskMembers} {
			if err := step(gen, 0, round); err != nil {
				return nil, err
			}
		}
		for s := 0; s < subs; s++ {
			if err := step(GenReduceC, s, round); err != nil {
				return nil, err
			}
		}

		// Host control FSM: record the chosen edges (read-only peek at
		// column 0, which now holds the per-component best encodings).
		picked := 0
		for s := 0; s < n; s++ {
			if int(field.Data(lay.BottomRow(s))) != s {
				continue // not a representative (D_N holds C)
			}
			best := field.Data(lay.ColumnZero(s))
			if best == gca.Inf {
				continue
			}
			rest := int64(best) % int64(n*n)
			u, v := int(rest/int64(n)), int(rest%int64(n))
			key := [2]int{u, v}
			if !chosen[key] {
				chosen[key] = true
				res.MSF.Edges = append(res.MSF.Edges, graph.WeightedEdge{U: u, V: v, W: g.Weight(u, v)})
				res.MSF.Weight += g.Weight(u, v)
			}
			picked++
		}

		for _, gen := range []int{GenHookA, GenHookB, GenSpreadT} {
			if err := step(gen, 0, round); err != nil {
				return nil, err
			}
		}
		for s := 0; s < subs; s++ {
			if err := step(GenShortcut, s, round); err != nil {
				return nil, err
			}
		}
		if err := step(GenFinalMin, 0, round); err != nil {
			return nil, err
		}
		res.Rounds++
		if picked == 0 {
			break
		}
	}

	raw := make([]int, n)
	for j := 0; j < n; j++ {
		raw[j] = int(field.Data(lay.ColumnZero(j)))
	}
	res.Labels = graph.CanonicalLabels(raw)
	return res, nil
}

// GenerationsPerRound returns the steps one Borůvka round costs on the
// GCA: 3·log n + 8, the paper's per-iteration figure.
func GenerationsPerRound(n int) int { return 3*core.SubGenerations(n) + 8 }
