package gca

// Kernel is a bulk generation evaluator: it computes cells [lo, hi) of
// the next generation directly over the field's raw slices, replacing the
// per-cell Pointer/Update interface dispatch of the generic path. cur is
// the committed previous generation, next the buffer under construction,
// and a the static auxiliary field.
//
// The machine hands a kernel one whole shard: [lo, hi) may start and end
// mid-row of whatever layout the program gives the field, and the kernel
// walks that layout itself. It must write every cell of next[lo:hi],
// idle cells included, since the step commits by swapping the buffers.
//
// A kernel must obey the same double-buffer discipline the machine
// enforces for rules: read cur (any index) and a, write exactly
// next[lo:hi], and never retain or alias the slices beyond the call. It
// returns the number of active cells (cells whose d changed) and the
// number of global reads it performed. A non-nil error aborts the step
// before the commit, exactly like an out-of-range pointer on the generic
// path.
//
// Kernels are invoked concurrently on disjoint [lo, hi) shards by the
// machine's worker pool; like rules they must be pure over their inputs
// and over the state a KernelPrologue filled before the step.
//
// A kernel that commits several of a program's generations in one step
// (core.Run's chained steps) has no per-generation counts to match. It
// may report zero active cells and zero reads; only a caller that never
// reads them may run it.
type Kernel func(lo, hi int, cur, next, a []Value) (active, reads int, err error)

// KernelRule is the optional fast-path contract of a rule: a rule that
// also provides bulk kernels. When the machine runs without congestion
// collection and without pointer capture — the two instrumentation modes
// that need per-cell pointer visibility — it asks KernelFor for a kernel
// before every step and, if one is returned, runs it instead of the
// generic per-cell path.
type KernelRule interface {
	Rule
	// KernelFor returns the bulk kernel for ctx, or nil when this
	// generation must use the generic path. The choice must depend only
	// on ctx, never on field contents, so that every shard of a step
	// takes the same path.
	KernelFor(ctx Context) Kernel
}

// KernelPrologue is the optional per-step set-up of a KernelRule. On
// every kernel-path step the machine calls Prologue once, on the
// stepping goroutine, after KernelFor and before any shard starts, so a
// rule can gather an operand its kernels read from every cell (say, a
// column read with stride n) into a contiguous vector it owns. Prologue
// may read cur, the committed generation, and may write only the rule's
// own state, which the step's kernels then read concurrently. That state
// belongs to one machine: a rule with a prologue must never be shared by
// machines that step concurrently.
//
// A non-nil error aborts the step before any shard runs, like an error
// from StepHooks.BeforeStep: the field keeps the previous generation and
// the tick does not advance.
type KernelPrologue interface {
	KernelRule
	Prologue(ctx Context, cur []Value) error
}
