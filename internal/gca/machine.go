package gca

import (
	"fmt"
	"runtime"

	"gcacc/internal/par"
)

// Observer receives a notification after every committed step. The
// StepStats (and the slices inside it) are reused by the machine; an
// observer that retains data across steps must copy it.
type Observer interface {
	OnStep(f *Field, s *StepStats)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(f *Field, s *StepStats)

// OnStep implements Observer.
func (fn ObserverFunc) OnStep(f *Field, s *StepStats) { fn(f, s) }

// Machine executes a Rule over a Field in synchronous generations,
// optionally sharded over the process-global fan-out pool of
// internal/par. The result of a step is a pure function of the previous
// field state, so it is bit-identical for every worker count and for
// every scheduling mode.
//
// When the rule is a KernelPlanner, each step first asks it for the
// generation's active region and picks one of two scheduling modes:
//
//   - sweep: the whole field is sharded as usual, but each shard invokes
//     the bulk kernel only on its plan-active runs and bulk-copies the
//     passive gaps (a straight memmove per gap) into the next buffer,
//     then the buffers swap. Chosen for dense plans.
//   - span: only the plan's segments are computed — serially, since the
//     work is a sliver of the field — and committed in place; no shard
//     dispatch, no barrier, no full-field traffic. Chosen when the plan
//     covers at most 1/8 of the field, which turns the paper's
//     column-0-only generations from O(n²) steps into O(n) steps.
//
// When the rule is also a KernelPrologue, every kernel-path step calls
// its Prologue once before either mode starts.
type Machine struct {
	field   *Field
	rule    Rule
	rule2   Rule2          // non-nil when rule is two-handed
	kernels KernelRule     // non-nil when rule provides bulk kernels
	planner KernelPlanner  // non-nil when rule also declares active regions
	prolog  KernelPrologue // non-nil when rule sets up its kernels per step
	workers int

	collectCongestion bool
	capturePointers   bool
	fullSweep         bool // disable span mode (differential testing)
	observer          Observer
	hooks             StepHooks

	tick int64

	// Shard plan, fixed at construction: shard w covers cells
	// [lo[w], hi[w]). active is the number of shards; fields too small to
	// be worth sharding get a single shard regardless of the requested
	// worker count.
	lo, hi []int
	active int

	group par.Group

	// Per-step job state, published by Step before shards are dispatched
	// to the shared pool (the pool's channel send orders the accesses).
	jobCtx    Context
	jobKernel Kernel
	jobPlan   Plan

	// Scratch buffers, reused across steps.
	stats       StepStats
	results     []rangeResult
	workerReads [][]int32
}

// Option configures a Machine.
type Option func(*Machine)

// WithWorkers sets the number of shards evaluated concurrently per step.
// Values < 1 select runtime.GOMAXPROCS(0).
func WithWorkers(n int) Option {
	return func(m *Machine) { m.workers = n }
}

// WithCongestion enables per-target read counting (Table 1's δ column).
// It costs one int32 per cell per worker, and disables the bulk-kernel
// fast path.
func WithCongestion() Option {
	return func(m *Machine) { m.collectCongestion = true }
}

// WithPointerCapture records each cell's resolved pointer and whether its
// state changed — the inputs of the Figure-3 access-pattern renderer. It
// disables the bulk-kernel fast path.
func WithPointerCapture() Option {
	return func(m *Machine) { m.capturePointers = true }
}

// WithObserver attaches an observer notified after every step.
func WithObserver(o Observer) Option {
	return func(m *Machine) { m.observer = o }
}

// StepHooks are optional per-step fault-injection points. The zero value
// disables them at the cost of one nil check per step and one per shard
// evaluation — the chaos tier (internal/fault) threads its deterministic
// injector through them, and the fast-path benchmarks run with them
// unset. Hooks must not touch the Field: they model environmental
// faults (latency, stalls, transient failures), not state mutations.
type StepHooks struct {
	// BeforeStep runs before the step's shards are evaluated; it may
	// block (injected latency) and may return a non-nil error, which
	// aborts the step before any cell is read — the field still holds
	// the previous generation and the tick does not advance, so the
	// machine state stays consistent for the caller's error handling.
	BeforeStep func(ctx Context) error
	// WorkerStall runs before a shard's range is scanned (in whichever
	// goroutine evaluates it) and once, for shard 0, before a span-mode
	// commit; it may block. Stalls delay the step barrier but never
	// change results — each generation remains a pure function of the
	// previous field regardless of shard timing.
	WorkerStall func(ctx Context, worker int)
}

// WithStepHooks attaches fault-injection hooks to the machine.
func WithStepHooks(h StepHooks) Option {
	return func(m *Machine) { m.hooks = h }
}

// NewMachine builds a machine over the given field and rule.
func NewMachine(field *Field, rule Rule, opts ...Option) *Machine {
	if field == nil {
		panic("gca: nil field")
	}
	if rule == nil {
		panic("gca: nil rule")
	}
	m := &Machine{field: field, rule: rule}
	if r2, ok := rule.(Rule2); ok {
		m.rule2 = r2
	}
	if kr, ok := rule.(KernelRule); ok {
		m.kernels = kr
	}
	if kp, ok := rule.(KernelPlanner); ok {
		m.planner = kp
	}
	if kp, ok := rule.(KernelPrologue); ok {
		m.prolog = kp
	}
	for _, o := range opts {
		o(m)
	}
	if m.workers < 1 {
		m.workers = runtime.GOMAXPROCS(0)
	}
	if m.workers > field.Len() && field.Len() > 0 {
		m.workers = field.Len()
	}
	if m.workers < 1 {
		m.workers = 1
	}
	m.planShards()

	n := field.Len()
	m.results = make([]rangeResult, m.active)
	if m.collectCongestion {
		m.stats.Reads = make([]int32, n)
		// One read-count buffer per shard that actually runs; shards
		// that never run would only add zero-filled buffers to every
		// zeroing and merge pass.
		m.workerReads = make([][]int32, m.active)
		for i := range m.workerReads {
			if i == 0 {
				m.workerReads[i] = m.stats.Reads // worker 0 writes the merge target directly
			} else {
				m.workerReads[i] = make([]int32, n)
			}
		}
	}
	if m.capturePointers {
		m.stats.Pointers = make([]int32, n)
		m.stats.Changed = make([]bool, n)
	}
	return m
}

// planShards fixes the per-shard cell ranges. The field size never
// changes, so the plan is computed once; fields below the sharding
// threshold collapse to a single shard evaluated by the caller. lo and
// hi share one allocation.
func (m *Machine) planShards() {
	n := m.field.Len()
	if m.workers == 1 || n < 2*minChunk {
		b := []int{0, n}
		m.lo, m.hi = b[:1:1], b[1:]
		m.active = 1
		return
	}
	chunk := (n + m.workers - 1) / m.workers
	shards := (n + chunk - 1) / chunk
	b := make([]int, 2*shards)
	m.lo, m.hi = b[:shards:shards], b[shards:]
	for w := range m.lo {
		m.lo[w] = w * chunk
		m.hi[w] = min(m.lo[w]+chunk, n)
	}
	m.active = shards
}

// Field returns the machine's field.
func (m *Machine) Field() *Field { return m.field }

// Tick returns the number of committed steps since construction.
func (m *Machine) Tick() int64 { return m.tick }

// Step executes one synchronous generation under ctx and commits it.
// The returned stats are valid until the next call to Step.
func (m *Machine) Step(ctx Context) (*StepStats, error) {
	ctx.Tick = m.tick
	if m.hooks.BeforeStep != nil {
		if err := m.hooks.BeforeStep(ctx); err != nil {
			return nil, err
		}
	}
	m.stats.Ctx = ctx
	m.stats.Active = 0
	m.stats.TotalReads = 0
	m.stats.MaxCongestion = 0

	if m.collectCongestion {
		for _, wr := range m.workerReads {
			clear(wr)
		}
	}

	// The bulk-kernel fast path applies when the rule provides a kernel
	// for this generation and no instrumentation needs per-cell pointer
	// visibility. The choice depends only on ctx, so every shard of the
	// step takes the same path and the result stays bit-identical to the
	// generic one.
	size := m.field.Len()
	m.jobKernel = nil
	m.jobPlan = fullPlan(size)
	if m.kernels != nil && !m.collectCongestion && !m.capturePointers {
		m.jobKernel = m.kernels.KernelFor(ctx)
		if m.jobKernel != nil && m.planner != nil {
			p := m.planner.PlanFor(ctx)
			if err := p.validate(size); err != nil {
				return nil, err
			}
			if !p.Full(size) {
				m.jobPlan = p
			}
		}
		if m.jobKernel != nil && m.prolog != nil {
			m.prolog.Prologue(ctx, m.field.cur)
		}
	}

	// Span mode: the plan covers so little of the field that computing
	// its segments serially and committing them in place beats touching
	// all size cells (kernel sweep + gap copies + swap would). The
	// observable result — field contents, Active, TotalReads — is
	// bit-identical to a full sweep; only the schedule differs.
	if m.jobKernel != nil && !m.fullSweep && !m.jobPlan.Full(size) && m.jobPlan.Cells()*8 <= size {
		if err := m.runSpan(ctx); err != nil {
			return nil, err
		}
	} else if err := m.runSweep(ctx); err != nil {
		return nil, err
	}

	if m.collectCongestion {
		merged := m.stats.Reads
		for w := 1; w < len(m.workerReads); w++ {
			for i, v := range m.workerReads[w] {
				if v != 0 {
					merged[i] += v
				}
			}
		}
		maxC := int32(0)
		for _, v := range merged {
			if v > maxC {
				maxC = v
			}
		}
		m.stats.MaxCongestion = int(maxC)
	}

	m.tick++
	if m.observer != nil {
		m.observer.OnStep(m.field, &m.stats)
	}
	return &m.stats, nil
}

// runSpan evaluates only the plan's segments, serially, and commits them
// in place: the kernel writes next[segment] for every segment, and only
// then are the segments copied over cur (compute strictly before commit,
// since a kernel may read any cur cell — e.g. the shortcut generation
// reading other column-0 cells). Idle cells are never touched and the
// buffers do not swap: cur simply stays current outside the plan.
func (m *Machine) runSpan(ctx Context) error {
	if m.hooks.WorkerStall != nil {
		m.hooks.WorkerStall(ctx, 0)
	}
	cur, next, aux := m.field.cur, m.field.next, m.field.a
	k := m.jobKernel
	p := m.jobPlan
	if p.SegLen == 0 || p.Count == 0 {
		return nil // empty region: the generation provably changes nothing
	}
	for s := 0; s < p.Count; s++ {
		segLo := p.Lo + s*p.Stride
		active, reads, err := k(segLo, segLo+p.SegLen, cur, next, aux)
		if err != nil {
			return err
		}
		m.stats.Active += active
		m.stats.TotalReads += reads
	}
	for s := 0; s < p.Count; s++ {
		segLo := p.Lo + s*p.Stride
		m.field.commitRange(segLo, segLo+p.SegLen)
	}
	return nil
}

// runSweep evaluates the full field across the shard plan on the shared
// pool (shard 0, and any shard the pool cannot take immediately, on the
// calling goroutine) and commits by buffer swap. Within each shard the
// kernel runs only on plan-active runs; passive gaps are bulk-copied
// forward.
func (m *Machine) runSweep(ctx Context) error {
	m.jobCtx = ctx
	m.group.Run((*sweepJob)(m), m.active)

	var err error
	for _, r := range m.results {
		m.stats.Active += r.active
		m.stats.TotalReads += r.reads
		if r.err != nil && err == nil {
			err = r.err
		}
	}
	if err != nil {
		return err
	}
	m.field.swap()
	return nil
}

// minChunk is the smallest per-shard range worth sharding.
const minChunk = 256

type rangeResult struct {
	active int
	reads  int
	err    error
}

// sweepJob is the Machine as a par.Job, which keeps RunShard off the
// Machine's API.
type sweepJob Machine

// RunShard evaluates shard w of the step runSweep published.
func (j *sweepJob) RunShard(w int) {
	m := (*Machine)(j)
	m.results[w] = m.runShard(m.jobCtx, w)
}

// runShard evaluates shard w of the next generation: through the step's
// bulk kernel over the plan's active runs when a kernel is set (passive
// gaps are copied forward unchanged), and through the generic per-cell
// Pointer/Update path otherwise.
func (m *Machine) runShard(ctx Context, w int) rangeResult {
	if m.hooks.WorkerStall != nil {
		m.hooks.WorkerStall(ctx, w)
	}
	lo, hi := m.lo[w], m.hi[w]
	cur := m.field.cur
	next := m.field.next
	aux := m.field.a
	if k := m.jobKernel; k != nil {
		var res rangeResult
		m.jobPlan.forEachRun(lo, hi,
			func(runLo, runHi int) {
				if res.err != nil {
					return
				}
				active, reads, err := k(runLo, runHi, cur, next, aux)
				res.active += active
				res.reads += reads
				res.err = err
			},
			func(gapLo, gapHi int) {
				copy(next[gapLo:gapHi], cur[gapLo:gapHi])
			})
		return res
	}

	var res rangeResult
	n := len(cur)
	var reads []int32
	if m.collectCongestion {
		reads = m.workerReads[w]
	}
	for i := lo; i < hi; i++ {
		self := Cell{D: cur[i], A: aux[i]}
		p := m.rule.Pointer(ctx, i, self)
		var global Cell
		switch {
		case p == NoRead:
			global = self
		case p < 0 || p >= n:
			if res.err == nil {
				res.err = fmt.Errorf("gca: generation %d sub %d: cell %d computed out-of-range pointer %d (field size %d)",
					ctx.Generation, ctx.Sub, i, p, n)
			}
			continue
		default:
			global = Cell{D: cur[p], A: aux[p]}
			res.reads++
			if reads != nil {
				reads[p]++
			}
		}
		var d Value
		if m.rule2 != nil {
			p2 := m.rule2.Pointer2(ctx, i, self)
			var global2 Cell
			switch {
			case p2 == NoRead:
				global2 = self
			case p2 < 0 || p2 >= n:
				if res.err == nil {
					res.err = fmt.Errorf("gca: generation %d sub %d: cell %d computed out-of-range second pointer %d (field size %d)",
						ctx.Generation, ctx.Sub, i, p2, n)
				}
				continue
			default:
				global2 = Cell{D: cur[p2], A: aux[p2]}
				res.reads++
				if reads != nil {
					reads[p2]++
				}
			}
			d = m.rule2.Update2(ctx, i, self, global, global2)
		} else {
			d = m.rule.Update(ctx, i, self, global)
		}
		next[i] = d
		changed := d != self.D
		if changed {
			res.active++
		}
		if m.capturePointers {
			m.stats.Pointers[i] = int32(p)
			m.stats.Changed[i] = changed
		}
	}
	return res
}
