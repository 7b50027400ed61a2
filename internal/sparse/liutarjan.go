package sparse

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"gcacc/internal/gca"
	"gcacc/internal/par"
)

// The Liu–Tarjan simple concurrent labeling algorithms (PAPERS.md:
// "Simple Concurrent Labeling Algorithms for Connected Components")
// maintain a label per vertex and repeat rounds of connect (propagate
// smaller labels across edges), shortcut (pointer-jump every label one
// step), and optionally alter (rewrite each edge to its endpoints'
// current labels and drop the resulting self-loops) until nothing
// changes. This file implements the framework's variant space with one
// determinism refinement over the paper's CRCW model: concurrent label
// proposals combine through an atomic minimum, which is commutative and
// associative, so the labels after every phase — and therefore the whole
// run — are bit-identical for any worker count and any schedule. That
// property is load-bearing: the serving layer's content-addressed cache
// and the conformance fuzzer both assume engines are pure functions of
// the input.
//
// Invariants (same argument as the paper's): labels only decrease, every
// label is a vertex of its own component, and the component minimum m
// keeps label m forever. A round with no change means every edge has
// equal endpoint labels and the label map is idempotent, which forces
// every label to equal its component minimum — the facade's labelling
// convention. Termination: any round that is not a fixpoint strictly
// decreases the label sum. On a path the connect+shortcut pair more than
// doubles each vertex's label distance per round, so convergence is
// O(log n) rounds on the corpus adversaries, matching the paper's
// experiments.

// Variant selects a point in the Liu–Tarjan connect/alter variant space.
// The zero value is parent-connect without alteration (the paper's "P").
type Variant struct {
	// Extended also hooks each endpoint's current label vertex to the
	// other endpoint's label (the paper's extended-connect "E"),
	// shortening label chains one round earlier at the cost of two extra
	// atomic-min proposals per edge.
	Extended bool
	// Alter rewrites each edge to its endpoints' labels after the
	// shortcut phase and drops self-loops (the paper's "A" suffix), so
	// the edge scan shrinks as components coalesce.
	Alter bool
}

// DefaultVariant is extended-connect with alteration ("ea"), the
// strongest variant in the paper's experiments and the one the facade
// engine runs.
var DefaultVariant = Variant{Extended: true, Alter: true}

// String returns the variant's short name: "p", "e", "pa" or "ea".
func (v Variant) String() string {
	s := "p"
	if v.Extended {
		s = "e"
	}
	if v.Alter {
		s += "a"
	}
	return s
}

// Variants enumerates the implemented variant space.
func Variants() []Variant {
	return []Variant{
		{},
		{Extended: true},
		{Alter: true},
		{Extended: true, Alter: true},
	}
}

// Options configures a sparse engine run. The zero value runs with
// background context, GOMAXPROCS workers, no hooks and DefaultVariant
// semantics left to each engine's Run.
type Options struct {
	// Ctx is checked between rounds; cancellation aborts with ctx.Err().
	Ctx context.Context
	// Workers is the pool size (GOMAXPROCS when ≤ 0). Results are
	// bit-identical for every value.
	Workers int
	// Hooks receive the same fault-injection points as the GCA stepping
	// engine: BeforeStep before each round's first mutation (an error
	// aborts the run with labels untouched since the previous round) and
	// WorkerStall per worker per parallel phase (pure delay).
	Hooks gca.StepHooks
	// Variant selects the Liu–Tarjan variant (LiuTarjan engine only).
	Variant Variant
}

// Result is a sparse engine's output.
type Result struct {
	// Labels maps each vertex to the smallest vertex index of its
	// component.
	Labels []int
	// Rounds is the number of connect/shortcut(/alter) rounds executed,
	// the sparse analogue of the dense engines' generation count.
	Rounds int
}

// LiuTarjan runs the selected Liu–Tarjan variant over g.
func LiuTarjan(g *Graph, opt Options) (Result, error) {
	r := newLabelRun(g, opt, opt.Variant.Alter)
	r.extended = opt.Variant.Extended
	return r.converge(opt.Ctx, "liutarjan/"+opt.Variant.String(), (*labelRun).ltStep)
}

// labelRun is the per-run state of both label-propagation engines
// (Liu–Tarjan here, log-diameter in logdiameter.go): the committed label
// plane and its double buffer, the working edge list, and the phase that
// the shared pool of internal/par fans out over edge or vertex ranges.
type labelRun struct {
	hooks   gca.StepHooks
	edges   []Edge
	labels  []int32 // committed labels (prev at phase entry)
	scratch []int32 // double buffer the phases write into
	changed []int32 // per-shard progress flags of the current phase
	workers int
	tick    int64
	group   par.Group

	// alters contracts the edge list after every round that made
	// progress (Liu–Tarjan's "A" variants, and every log-diameter round).
	alters bool
	// extended makes Liu–Tarjan's connect also hook onto the larger
	// side's label vertex.
	extended bool

	// The current phase, published before each fan-out. Shard s covers
	// [s·chunk, min((s+1)·chunk, total)); boundaries depend only on
	// (total, workers), never on timing.
	phase        phase
	hctx         gca.Context
	total, chunk int
}

type phase int

const (
	phaseConnect  phase = iota // Liu–Tarjan: propose smaller labels across every edge
	phaseHook                  // log-diameter: hook every larger root under a smaller one
	phaseShortcut              // one pointer jump per vertex
	phaseAlter                 // rewrite every edge to its endpoint labels
)

// newLabelRun starts every vertex in its own singleton label. Alteration
// mutates the edge list, so an altering run works on a copy and the
// caller's graph (or borrowed list) survives.
func newLabelRun(g *Graph, opt Options, alters bool) *labelRun {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := g.N()
	r := &labelRun{
		hooks:   opt.Hooks,
		edges:   g.engineEdges(),
		labels:  make([]int32, n),
		scratch: make([]int32, n),
		changed: make([]int32, workers),
		workers: workers,
		alters:  alters,
	}
	if alters {
		r.edges = append([]Edge(nil), r.edges...)
	}
	for v := range r.labels {
		r.labels[v] = int32(v)
	}
	return r
}

// converge runs rounds until one changes nothing, checking ctx between
// rounds.
func (r *labelRun) converge(ctx context.Context, name string, step func(*labelRun, int) (bool, error)) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(r.labels)
	rounds := 0
	for {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		progress, err := step(r, rounds)
		if err != nil {
			return Result{}, err
		}
		rounds++
		if !progress {
			break
		}
		if rounds > 2*n+4 {
			return Result{}, fmt.Errorf("sparse: %s failed to converge after %d rounds", name, rounds)
		}
	}
	return Result{Labels: widen(r.labels), Rounds: rounds}, nil
}

// beginRound runs the BeforeStep hook, which may abort the round before
// any mutation, and returns the round's hook context.
func (r *labelRun) beginRound(round int) (gca.Context, error) {
	hctx := gca.Context{Generation: round, Iteration: round, Tick: r.tick}
	if r.hooks.BeforeStep != nil {
		if err := r.hooks.BeforeStep(hctx); err != nil {
			return hctx, err
		}
	}
	return hctx, nil
}

// ltStep executes one connect + shortcut (+ alter) round and reports
// whether any label changed.
func (r *labelRun) ltStep(round int) (bool, error) {
	hctx, err := r.beginRound(round)
	if err != nil {
		return false, err
	}
	// Connect: propose smaller labels across every edge into the scratch
	// buffer via atomic minimum; prev stays immutable for the phase.
	copy(r.scratch, r.labels)
	progress := r.parallel(hctx, phaseConnect, len(r.edges))
	r.labels, r.scratch = r.scratch, r.labels

	// Shortcut: one pointer jump per vertex, reading the committed
	// buffer and writing the other — the package's one cur/next kernel.
	progress = r.parallel(hctx, phaseShortcut, len(r.labels)) || progress
	r.labels, r.scratch = r.scratch, r.labels

	if r.alters && progress {
		r.alter(hctx)
	}
	return progress, nil
}

// parallel runs one phase over [0, total) on the shared pool and reports
// whether any shard made progress.
func (r *labelRun) parallel(hctx gca.Context, p phase, total int) bool {
	r.tick++
	if total <= 0 {
		return false
	}
	r.phase, r.hctx, r.total = p, hctx, total
	r.chunk = (total + r.workers - 1) / r.workers
	shards := (total + r.chunk - 1) / r.chunk
	clear(r.changed)
	r.group.Run(r, shards)
	for _, c := range r.changed {
		if c != 0 {
			return true
		}
	}
	return false
}

// RunShard implements par.Job: it delivers the WorkerStall hook, then
// runs the published phase over shard s's range.
func (r *labelRun) RunShard(s int) {
	if stall := r.hooks.WorkerStall; stall != nil {
		stall(r.hctx, s)
	}
	lo := s * r.chunk
	hi := min(lo+r.chunk, r.total)
	var hit bool
	switch r.phase {
	case phaseConnect:
		hit = r.connect(lo, hi)
	case phaseHook:
		hit = r.hook(lo, hi)
	case phaseShortcut:
		cur, next := r.labels, r.scratch
		hit = shortcutRange(cur, next, lo, hi)
	case phaseAlter:
		r.alterRange(lo, hi)
	}
	if hit {
		r.changed[s] = 1
	}
}

// connect proposes, for every edge in [lo, hi) whose endpoint labels
// differ, the smaller label to the larger side's endpoint (parent-connect)
// and, when extended, to its label vertex too, through an atomic minimum
// into the scratch plane.
func (r *labelRun) connect(lo, hi int) bool {
	prev, out := r.labels, r.scratch
	hit := false
	for _, e := range r.edges[lo:hi] {
		v, lu, lv := e.V, prev[e.U], prev[e.V]
		if lu == lv {
			continue
		}
		if lv < lu {
			v, lu, lv = e.U, lv, lu
		}
		hit = atomicMin(out, int(v), lu) || hit
		if r.extended {
			hit = atomicMin(out, int(lv), lu) || hit
		}
	}
	return hit
}

// alter rewrites every edge to its endpoints' current labels and drops
// self-loops. The rewrite is parallel (disjoint indices); the compaction
// is a sequential order-preserving filter, so the surviving edge order —
// and with it every later phase — is deterministic.
func (r *labelRun) alter(hctx gca.Context) {
	r.parallel(hctx, phaseAlter, len(r.edges))
	kept := r.edges[:0]
	for _, e := range r.edges {
		if e.U != e.V {
			kept = append(kept, e)
		}
	}
	r.edges = kept
}

func (r *labelRun) alterRange(lo, hi int) {
	labels, edges := r.labels, r.edges
	for i := lo; i < hi; i++ {
		u, v := labels[edges[i].U], labels[edges[i].V]
		if u > v {
			u, v = v, u
		}
		edges[i] = Edge{u, v}
	}
}

// shortcutRange applies next[v] = cur[cur[v]] over [lo, hi) and reports
// whether any label moved. cur is read-only, next is write-only: the
// buffer discipline every kernel in the repo follows.
func shortcutRange(cur, next []int32, lo, hi int) bool {
	hit := false
	for v := lo; v < hi; v++ {
		l := cur[cur[v]]
		next[v] = l
		if l != cur[v] {
			hit = true
		}
	}
	return hit
}

// atomicMin lowers arr[i] to v if v is smaller, reporting whether it
// changed the slot. Minimum is commutative and associative, so any set
// of concurrent proposals leaves the same value regardless of order —
// the determinism anchor for every parallel phase here.
func atomicMin(arr []int32, i int, v int32) bool {
	for {
		old := atomic.LoadInt32(&arr[i])
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapInt32(&arr[i], old, v) {
			return true
		}
	}
}

// widen converts int32 labels to the facade's []int convention.
func widen(labels []int32) []int {
	out := make([]int, len(labels))
	for i, l := range labels {
		out[i] = int(l)
	}
	return out
}
