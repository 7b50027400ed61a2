// Package core implements the paper's primary contribution: Hirschberg's
// connected-components algorithm expressed as a 12-generation program for a
// one-handed, uniform Global Cellular Automaton (Figure 2 of the paper).
//
// The cell field is the paper's (n+1)×n matrix: n² square cells D□ that
// carry one adjacency bit each, plus an extra bottom row D_N of n cells for
// intermediate results. Column 0 of the square field plays the role of the
// reference algorithm's C and T vectors.
//
// A full run executes generation 0 once and then ⌈log₂ n⌉ iterations of
// generations 1–11, where generations 3, 7 (tree min-reduction) and 10
// (pointer shortcutting) each consist of ⌈log₂ n⌉ sub-generations — in
// total 1 + log n · (3·log n + 8) synchronous steps for n a power of two,
// the closed form of the paper's Section 3.
package core

import (
	"fmt"

	"gcacc/internal/gca"
)

// Layout describes the paper's cell-field geometry for a graph with n
// nodes: linear indices 0 … n²+n-1, row-major, with row(index) ∈ 0…n and
// col(index) ∈ 0…n-1. Row n is the extra bottom row D_N.
type Layout struct {
	N int // number of graph nodes
}

// Size returns the total number of cells, n·(n+1).
func (l Layout) Size() int { return l.N * (l.N + 1) }

// Index returns the linear index of the cell in row j, column i.
func (l Layout) Index(j, i int) int {
	if j < 0 || j > l.N || i < 0 || i >= l.N {
		panic(fmt.Sprintf("core: cell (%d,%d) outside (%d+1)×%d layout", j, i, l.N, l.N))
	}
	return j*l.N + i
}

// ColumnZero returns the linear index of D<j>[0] — the cell holding C(j)
// (and transiently T(j)) for node j.
func (l Layout) ColumnZero(j int) int { return j * l.N }

// BottomRow returns the linear index of D_N[i].
func (l Layout) BottomRow(i int) int { return l.N*l.N + i }

// Log2Ceil returns ⌈log₂ n⌉ for n ≥ 1 (0 for n ≤ 1). This is the paper's
// "log n": the number of outer iterations, of min-reduction
// sub-generations, and of shortcut sub-generations.
func Log2Ceil(n int) int {
	k, p := 0, 1
	for p < n {
		p <<= 1
		k++
	}
	return k
}

// Iterations returns the number of outer iterations of generations 1–11
// needed for n nodes: ⌈log₂ n⌉ (components at least halve per iteration).
func Iterations(n int) int { return Log2Ceil(n) }

// SubGenerations returns the number of sub-generations of the tree
// reduction (generations 3 and 7) and of pointer shortcutting
// (generation 10) for n nodes: ⌈log₂ n⌉.
func SubGenerations(n int) int { return Log2Ceil(n) }

// GenerationsPerIteration returns the number of synchronous steps one
// iteration of generations 1–11 costs: 8 single-step generations plus
// three log n sub-generation blocks (paper, Table 2).
func GenerationsPerIteration(n int) int { return 8 + 3*SubGenerations(n) }

// TotalGenerations returns the closed form of the paper's Section 3:
// 1 + log n · (3·log n + 8) synchronous steps for the full algorithm
// (the leading 1 is generation 0).
func TotalGenerations(n int) int {
	return 1 + Iterations(n)*GenerationsPerIteration(n)
}

// Schedule enumerates the control sequence of a full run for n nodes:
// generation 0 once (iteration -1), then iterations passes over
// generations 1–11 with ⌈log₂ n⌉ sub-generations for the reductions and
// the shortcut. iterations ≤ 0 selects the paper's ⌈log₂ n⌉. Run steps
// exactly this sequence whenever anything observes its steps (otherwise
// it commits generation 0 and, per iteration, two chains and a tail that
// cover this sequence; see chainStep), so the slice doubles as the
// sequencing oracle of the conformance harness:
// len(Schedule(n, 0)) == TotalGenerations(n).
func Schedule(n, iterations int) []gca.Context {
	if n < 1 {
		return nil
	}
	if iterations <= 0 {
		iterations = Iterations(n)
	}
	subs := SubGenerations(n)
	ctxs := make([]gca.Context, 0, 1+iterations*(8+3*subs))
	ctxs = append(ctxs, gca.Context{Generation: GenInit, Iteration: -1})
	for it := 0; it < iterations; it++ {
		for gen := GenCopyC; gen <= GenFinalMin; gen++ {
			nSubs := 1
			switch gen {
			case GenReduceT, GenReduceT2, GenShortcut:
				nSubs = subs
			}
			for sub := 0; sub < nSubs; sub++ {
				ctxs = append(ctxs, gca.Context{Generation: gen, Sub: sub, Iteration: it})
			}
		}
	}
	return ctxs
}
