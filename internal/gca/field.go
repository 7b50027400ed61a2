package gca

import "fmt"

// Cell is the externally visible state of one GCA cell: the data field d
// and the static auxiliary field a (the paper stores the adjacency-matrix
// entry A(i,j) there). The pointer field p is not part of the stored state
// in this machine because the paper's program computes it combinationally
// in the current generation (the "=" assignments of Figure 2).
type Cell struct {
	D Value // data field d, the value global neighbours read
	A Value // static auxiliary field a, fixed at initialisation
}

// Field stores the cell state in struct-of-arrays form: the mutable data
// field d is double-buffered (rules read the current buffer, the machine
// writes the next buffer, so every generation is a pure function of the
// previous one), while the auxiliary field a — immutable after
// initialisation — is kept in a single shared slice that a step never
// copies. Compared to an array-of-Cell layout this halves the bytes a
// step moves and keeps the hot d values densely packed.
//
// Two-dimensional layouts (the paper's (n+1)×n matrix) are expressed by
// the caller through index arithmetic; Field itself is shape-agnostic.
type Field struct {
	cur, next []Value // data field d, double buffered
	a         []Value // static auxiliary field a, shared by both generations
}

// NewField returns a field of size cells, all zero.
func NewField(size int) *Field {
	if size < 0 {
		panic(fmt.Sprintf("gca: negative field size %d", size))
	}
	// The three planes share one allocation.
	b := make([]Value, 3*size)
	return &Field{
		cur:  b[:size:size],
		next: b[size : 2*size : 2*size],
		a:    b[2*size:],
	}
}

// Len returns the number of cells.
func (f *Field) Len() int { return len(f.cur) }

// Cell returns the current state of cell idx.
func (f *Field) Cell(idx int) Cell { return Cell{D: f.cur[idx], A: f.a[idx]} }

// Data returns the current data field of cell idx.
func (f *Field) Data(idx int) Value { return f.cur[idx] }

// SetCell overwrites the current state of cell idx. It is intended for
// initialisation (generation 0 inputs such as the adjacency field a);
// calling it between machine steps breaks the synchronous semantics only
// if done from concurrent goroutines.
func (f *Field) SetCell(idx int, c Cell) {
	f.cur[idx] = c.D
	f.a[idx] = c.A
}

// SetData overwrites the current data field of cell idx.
func (f *Field) SetData(idx int, d Value) { f.cur[idx] = d }

// Snapshot appends the current data fields to dst and returns it; with a
// nil dst it allocates exactly Len() entries. Observers use it to capture
// generation-by-generation traces.
func (f *Field) Snapshot(dst []Value) []Value {
	if dst == nil {
		dst = make([]Value, 0, f.Len())
	}
	return append(dst, f.cur...)
}

// swap commits the next buffer as the current one.
func (f *Field) swap() { f.cur, f.next = f.next, f.cur }

// commitRange commits cells [lo, hi) in place by copying their freshly
// computed next values over the current buffer. Span-mode steps use it
// instead of swap: when a generation's active region is a sliver of the
// field, committing just that sliver avoids making every idle cell's
// next value authoritative (which a swap does, and which therefore
// requires a full-field copy-forward first). Callers must have finished
// all current-generation reads before the first commitRange of a step.
func (f *Field) commitRange(lo, hi int) { copy(f.cur[lo:hi], f.next[lo:hi]) }
