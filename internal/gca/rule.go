package gca

// NoRead is returned by Rule.Pointer when the cell does not access a
// global neighbour this generation. The machine then passes the cell's own
// state as the global operand, which matches the paper's convention that a
// cell can always see itself (p = index).
const NoRead = -1

// Context carries the control state the uniform rule may depend on. In
// hardware this is the global generation counter that addresses each
// cell's rule multiplexer (paper, Section 4).
type Context struct {
	// Generation is the program-defined generation identifier (0–11 for
	// the paper's program).
	Generation int
	// Sub is the sub-generation counter within a generation (the paper's
	// log n "sub generations" in generations 3, 7 and 10).
	Sub int
	// Iteration is the outer loop counter (the paper repeats steps 2–6
	// for log n iterations).
	Iteration int
	// Tick is the global step counter since machine reset, counting every
	// sub-generation once.
	Tick int64
}

// Rule is the uniform local rule of a one-handed GCA.
//
// For each cell, the machine first calls Pointer to resolve the global
// neighbour (the paper's p = … assignments), then calls Update with the
// cell's own state and the neighbour's state from the *previous*
// generation (d and d*), and stores the returned data value into the next
// generation. The auxiliary field a is immutable.
//
// Both methods must be pure functions of their arguments: they are invoked
// concurrently from multiple goroutines.
type Rule interface {
	// Pointer returns the linear index of the global cell read by cell
	// idx in this generation, or NoRead.
	Pointer(ctx Context, idx int, self Cell) int
	// Update returns the next data value d' of cell idx given its own
	// state (self = (a,d)) and the global cell's state (global = (a*,d*)).
	Update(ctx Context, idx int, self, global Cell) Value
}

// Rule2 is the uniform rule of a two-handed GCA — the paper's "two
// handed if two neighbors can be addressed". A machine whose rule also
// implements Rule2 resolves a second global read per generation and calls
// Update2 instead of Update. Both reads are counted in the congestion
// accounting.
type Rule2 interface {
	Rule
	// Pointer2 returns the second hand's global cell index, or NoRead.
	Pointer2(ctx Context, idx int, self Cell) int
	// Update2 returns the next data value given both global operands.
	// When a hand is NoRead its operand is the cell's own state.
	Update2(ctx Context, idx int, self, global1, global2 Cell) Value
}

// RuleFuncs adapts a pair of functions to the Rule interface, for tests
// and small programs.
type RuleFuncs struct {
	PointerFunc func(ctx Context, idx int, self Cell) int
	UpdateFunc  func(ctx Context, idx int, self, global Cell) Value
}

// Pointer implements Rule.
func (r RuleFuncs) Pointer(ctx Context, idx int, self Cell) int {
	if r.PointerFunc == nil {
		return NoRead
	}
	return r.PointerFunc(ctx, idx, self)
}

// Update implements Rule.
func (r RuleFuncs) Update(ctx Context, idx int, self, global Cell) Value {
	if r.UpdateFunc == nil {
		return self.D
	}
	return r.UpdateFunc(ctx, idx, self, global)
}
