package hw

import (
	"context"
	"fmt"
	"runtime"

	"gcacc/internal/core"
	"gcacc/internal/gca"
	"gcacc/internal/graph"
	"gcacc/internal/par"
)

// CellArray is a register-transfer-level model of the fully parallel
// hardware implementation of Section 4 / Figure 4: the abstract GCA
// program *compiled* into a fixed cell array.
//
// The crucial difference from the abstract machine in internal/gca is
// that standard cells have no pointer arithmetic at run time: every
// static access pattern of the program (generations 1–9) is frozen into
// per-generation wires when the array is built, selected by a multiplexer
// addressed by the global generation counter. Only the n extended cells
// (column 0) carry a second, data-addressed multiplexer for the
// pointer-chasing generations 10–11 — exactly the paper's split into "n²
// standard cells and n extended cells with the ability to choose the
// neighbor cell on the basis of the cell data".
//
// Running the array and the abstract machine on the same graph must give
// identical results; the equivalence test is the evidence that the
// program is realizable with static interconnect plus n extended cells.
type CellArray struct {
	n   int
	lay core.Layout

	// Registers.
	d []gca.Value
	a []bool

	// Static wiring: wires[slot][cell] is the index of the cell whose d
	// register is connected to this cell's global input in that slot, or
	// -1 for "no connection" (the cell sees its own d). Slots enumerate
	// the static generations, with one slot per reduction sub-generation.
	wires [][]int32
	slots map[slotKey]int

	// Scratch next-state buffer (the "master" stage of the two-phase
	// clocking).
	next []gca.Value

	// Workers is the number of shards a clock cycle's cells are split
	// into on the shared pool of internal/par; values < 1 select
	// GOMAXPROCS, 1 steps the array serially. The hardware is fully
	// parallel, so sharding the evaluation loop changes nothing
	// observable: each cell's next state depends only on the current
	// registers. Tiny arrays are always stepped serially — fan-out costs
	// more than it saves.
	Workers int

	// Cycles counts clock cycles of the last Run.
	Cycles int

	// The cycle being clocked, published before its shards fan out:
	// shard s covers cells [s·chunk, min((s+1)·chunk, len(d))).
	gen, sub, chunk int
	group           par.Group
}

type slotKey struct {
	gen int
	sub int
}

// NewCellArray "synthesizes" the array for the given graph: the adjacency
// matrix and every static access pattern are baked into the structure.
func NewCellArray(g *graph.Graph) *CellArray {
	n := g.N()
	lay := core.Layout{N: n}
	ca := &CellArray{
		n:     n,
		lay:   lay,
		d:     make([]gca.Value, lay.Size()),
		a:     make([]bool, lay.Size()),
		next:  make([]gca.Value, lay.Size()),
		slots: make(map[slotKey]int),
	}
	adj := g.Adjacency()
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			ca.a[lay.Index(j, i)] = adj.Get(j, i)
		}
	}

	addSlot := func(gen, sub int, src func(idx, row, col int) int32) {
		w := make([]int32, lay.Size())
		for idx := range w {
			w[idx] = src(idx, idx/n, idx%n)
		}
		ca.slots[slotKey{gen, sub}] = len(ca.wires)
		ca.wires = append(ca.wires, w)
	}
	none := int32(-1)

	// Generation 1 and 5: column broadcast from column 0.
	colBroadcast := func(idx, row, col int) int32 { return int32(col * n) }
	addSlot(core.GenCopyC, 0, colBroadcast)
	addSlot(core.GenCopyT, 0, colBroadcast)

	// Generation 2: row j reads D_N[j]; bottom row unconnected.
	addSlot(core.GenMaskAdj, 0, func(idx, row, col int) int32 {
		if row == n {
			return none
		}
		return int32(n*n + row)
	})

	// Generations 3 and 7: one slot per reduction sub-generation.
	for s := 0; s < core.SubGenerations(n); s++ {
		step := 1 << uint(s)
		reduce := func(idx, row, col int) int32 {
			if row == n || col+step >= n {
				return none
			}
			return int32(idx + step)
		}
		addSlot(core.GenReduceT, s, reduce)
		addSlot(core.GenReduceT2, s, reduce)
	}

	// Generations 4 and 8: column 0 reads D_N[row].
	defaultWire := func(idx, row, col int) int32 {
		if col == 0 && row != n {
			return int32(n*n + row)
		}
		return none
	}
	addSlot(core.GenDefaultT, 0, defaultWire)
	addSlot(core.GenDefaultT2, 0, defaultWire)

	// Generation 6: row cells read D_N[col].
	addSlot(core.GenMaskComp, 0, func(idx, row, col int) int32 {
		if row == n {
			return none
		}
		return int32(n*n + col)
	})

	// Generation 9: square cells outside column 0 read D<row>[0].
	addSlot(core.GenSpread, 0, func(idx, row, col int) int32 {
		if row == n || col == 0 {
			return none
		}
		return int32(row * n)
	})

	return ca
}

// N returns the graph size.
func (ca *CellArray) N() int { return ca.n }

// staticInput resolves a standard cell's global input in a static slot.
func (ca *CellArray) staticInput(gen, sub, idx int) gca.Value {
	slot, ok := ca.slots[slotKey{gen, sub}]
	if !ok {
		return ca.d[idx]
	}
	src := ca.wires[slot][idx]
	if src < 0 {
		return ca.d[idx]
	}
	return ca.d[src]
}

// minShard is the smallest per-shard cell range worth sharding.
const minShard = 256

// clock advances the array one cycle in the given generation/sub state.
func (ca *CellArray) clock(gen, sub int) {
	size := len(ca.d)
	workers := ca.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	ca.gen, ca.sub, ca.chunk = gen, sub, size
	if workers > 1 && size >= 2*minShard {
		ca.chunk = max((size+workers-1)/workers, minShard)
	}
	ca.group.Run((*clockJob)(ca), (size+ca.chunk-1)/ca.chunk)
	ca.d, ca.next = ca.next, ca.d
	ca.Cycles++
}

// clockJob is the CellArray as a par.Job, which keeps RunShard off the
// CellArray's API.
type clockJob CellArray

// RunShard evaluates shard s of the cycle clock published.
func (j *clockJob) RunShard(s int) {
	ca := (*CellArray)(j)
	lo := s * ca.chunk
	ca.clockRange(ca.gen, ca.sub, lo, min(lo+ca.chunk, len(ca.d)))
}

// clockRange evaluates cells [lo, hi) of the next cycle. Next state is a
// pure function of the current registers, so ranges are independent.
func (ca *CellArray) clockRange(gen, sub, lo, hi int) {
	n := ca.n
	for idx := lo; idx < hi; idx++ {
		row, col := idx/n, idx%n
		d := ca.d[idx]
		var out gca.Value
		switch gen {
		case core.GenInit:
			out = gca.Value(row)
		case core.GenCopyC:
			out = ca.staticInput(gen, sub, idx)
		case core.GenMaskAdj:
			if row == n {
				out = d
			} else if ca.a[idx] && d != ca.staticInput(gen, sub, idx) {
				out = d
			} else {
				out = gca.Inf
			}
		case core.GenReduceT, core.GenReduceT2:
			out = d
			if row != n {
				if in := ca.staticInput(gen, sub, idx); in < d {
					out = in
				}
			}
		case core.GenDefaultT, core.GenDefaultT2:
			out = d
			if col == 0 && row != n && d == gca.Inf {
				out = ca.staticInput(gen, sub, idx)
			}
		case core.GenCopyT:
			if row == n {
				out = d
			} else {
				out = ca.staticInput(gen, sub, idx)
			}
		case core.GenMaskComp:
			if row == n {
				out = d
			} else if ca.staticInput(gen, sub, idx) == gca.Value(row) && d != gca.Value(row) {
				out = d
			} else {
				out = gca.Inf
			}
		case core.GenSpread:
			if row == n || col == 0 {
				out = d
			} else {
				out = ca.staticInput(gen, sub, idx)
			}
		case core.GenShortcut:
			// Extended cells only: data-addressed read of D<d>[0].
			out = d
			if col == 0 && row != n {
				out = ca.d[int(d)*n]
			}
		case core.GenFinalMin:
			out = d
			if col == 0 && row != n {
				out = gca.MinValue(d, ca.d[int(d)*n+1])
			}
		default:
			out = d
		}
		ca.next[idx] = out
	}
}

// Run executes the full program — the control FSM of Figure 4 — and
// returns the component labels from column 0.
func (ca *CellArray) Run() ([]int, error) { return ca.RunContext(nil) }

// RunContext is Run with a deadline: a non-nil ctx is checked between
// clock cycles and aborts the run with the context's error.
func (ca *CellArray) RunContext(ctx context.Context) ([]int, error) {
	n := ca.n
	if n == 0 {
		return []int{}, nil
	}
	subs := core.SubGenerations(n)
	ca.Cycles = 0
	ca.clock(core.GenInit, 0)
	for it := 0; it < core.Iterations(n); it++ {
		for gen := core.GenCopyC; gen <= core.GenFinalMin; gen++ {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("hw: iteration %d generation %d: %w", it, gen, err)
				}
			}
			nSubs := 1
			switch gen {
			case core.GenReduceT, core.GenReduceT2, core.GenShortcut:
				nSubs = subs
			}
			for sub := 0; sub < nSubs; sub++ {
				if gen == core.GenShortcut || gen == core.GenFinalMin {
					// Guard the extended cells' data-addressed mux: a d
					// outside 0…n-1 would address a nonexistent input.
					for j := 0; j < n; j++ {
						if d := ca.d[j*n]; d < 0 || d >= gca.Value(n) {
							return nil, fmt.Errorf("hw: cell <%d>[0] holds %d, outside the extended mux range", j, d)
						}
					}
				}
				ca.clock(gen, sub)
			}
		}
	}
	labels := make([]int, n)
	for j := 0; j < n; j++ {
		labels[j] = int(ca.d[j*n])
	}
	return labels, nil
}
