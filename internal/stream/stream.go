// Package stream is the incremental (dynamic-connectivity) tier: named
// graphs that absorb edge appends through an incremental union-find
// while staying conformant with the full engines through scheduled
// recomputes.
//
// Every scenario below this tier is one-shot — graph in, labels out.
// Here a graph lives across requests: appends union at a near-constant
// amortized cost per edge, every accepted mutation batch advances an epoch,
// and queries snapshot the labelling at the current epoch. Deletions
// are the hard case for union-find, so the tier is deletion-tolerant
// rather than fully dynamic. Each live edge carries a tree bit: set when
// the edge performed a union, so the marked edges form a spanning forest
// of the live graph. Retracting an unmarked edge cannot change the
// components and leaves the graph clean. Retracting a marked edge marks
// the affected component dirty, and the next query (or an explicit
// Recompute) runs a full recompute over the live edge set with a sparse
// engine (Liu–Tarjan by default; the paper's GCA itself below the dense
// cutoff). One union-find pass over the same list, run alongside the
// engine on a pool worker, rebuilds the forest and the tree bits, and
// the engine's labelling must equal the rebuilt forest's. The recompute
// is bounded — one engine run plus one pass, coalesced across queries,
// never cascading — and the forest in between is a safe
// over-approximation that is never served while dirty.
//
// The live edge set is kept as an order-stable list (appends push,
// deletes swap-remove) that the recompute lends to the engine as is:
// the engines' labels and rounds depend only on the edge set, so the
// list is never copied into a graph or sorted, and a recompute costs
// Θ(n + m) per engine round; the union-find pass, near-linear in
// practice and O(n + m log n) in the worst case, overlaps the engine run
// where a second core is free.
package stream

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"gcacc"
	"gcacc/internal/fault"
	"gcacc/internal/graph"
	"gcacc/internal/par"
	"gcacc/internal/sparse"
)

// Sentinel errors; the serving layer maps these onto HTTP statuses.
var (
	// ErrEpochConflict is the optimistic-concurrency failure: the caller's
	// expected epoch no longer matches the graph (another writer got in).
	ErrEpochConflict = errors.New("stream: epoch precondition failed")
	// ErrInvalidEdge marks a batch rejected wholesale for an out-of-range
	// endpoint or a self-loop; nothing from the batch was applied.
	ErrInvalidEdge = errors.New("stream: invalid edge")
	// ErrEdgeLimit marks an append that would exceed the graph's live-edge
	// budget; nothing from the batch was applied.
	ErrEdgeLimit = errors.New("stream: live edge limit exceeded")
)

// NoEpoch disables the epoch precondition on a mutation.
const NoEpoch int64 = -1

// Config shapes one streaming graph.
type Config struct {
	// Engine runs full recomputes. It must be sparse-capable
	// (sequential, liutarjan, logdiameter) unless the graph has at most
	// gcacc.DenseCutoff vertices, where the dense engines — including the
	// paper's GCA — are honoured via densification. The zero value is
	// EngineGCA and is therefore only valid for small graphs; Registry
	// defaults to EngineLiuTarjan instead.
	Engine gcacc.Engine
	// Workers is passed through to the recompute engine (< 1 selects
	// GOMAXPROCS).
	Workers int
	// RecomputePeriod, when positive, forces a full recompute at the
	// first query after every RecomputePeriod accepted mutation batches —
	// the conformance schedule that keeps the incremental forest honest
	// against the engines. Zero recomputes only when a tree-edge deletion
	// requires it.
	RecomputePeriod int
	// MaxEdges bounds the live edge set (0 = unbounded, apart from the
	// hard ceiling of math.MaxInt32 edges).
	MaxEdges int
	// Fault, if non-nil, injects mid-batch aborts into mutations
	// (Config.BatchErrorP) and threads step faults into recomputes.
	Fault *fault.Injector
}

// Mutation reports one accepted batch.
type Mutation struct {
	// Epoch is the graph epoch after this batch.
	Epoch uint64 `json:"epoch"`
	// Applied counts edges that changed the live set.
	Applied int `json:"applied"`
	// Ignored counts no-ops: duplicate appends, retractions of absent edges.
	Ignored int `json:"ignored"`
	// Dirty reports whether the graph now needs a recompute before its
	// next query can be answered.
	Dirty bool `json:"dirty"`
}

// Snapshot is one consistent answer to a components query.
type Snapshot struct {
	// Epoch is the mutation epoch the labelling reflects.
	Epoch uint64 `json:"epoch"`
	// Components is the number of connected components.
	Components int `json:"components"`
	// Labels maps each vertex to the smallest vertex of its component.
	// The slice is owned by the caller.
	Labels []int `json:"labels"`
	// Recomputed reports whether this query triggered a full engine
	// recompute; Engine and Rounds describe it ("unionfind" and 0 for a
	// pure incremental answer).
	Recomputed bool   `json:"recomputed"`
	Engine     string `json:"engine"`
	Rounds     int    `json:"rounds,omitempty"`
}

// Info is a cheap observability snapshot of one graph.
type Info struct {
	N               int    `json:"n"`
	Edges           int    `json:"edges"`
	Epoch           uint64 `json:"epoch"`
	Dirty           bool   `json:"dirty"`
	DirtyComponents int    `json:"dirty_components"`
	Appends         int64  `json:"appends"`
	Deletes         int64  `json:"deletes"`
	Queries         int64  `json:"queries"`
	Recomputes      int64  `json:"recomputes"`
	Engine          string `json:"engine"`
}

// State is one streaming graph. All methods are safe for concurrent
// use; a single mutex serializes mutations, queries and recomputes, so
// every answer is a consistent epoch snapshot.
type State struct {
	cfg Config
	n   int

	mu sync.Mutex
	// edges is the live edge set, in an order that only mutations change,
	// and is the recompute engine's input as is; pos maps each live
	// edge's key to its index in edges. tree[i] is edges[i]'s tree bit:
	// whether that edge performed a union in uf. While the graph is clean
	// the marked edges form a spanning forest of the live graph; while it
	// is dirty the bits are stale, and the next recompute rebuilds them.
	edges []sparse.Edge
	tree  []bool
	pos   map[uint64]int32
	uf    *graph.UnionFind
	epoch uint64
	// dirty is set by an applied deletion of a tree edge, or of any edge
	// while the graph is already dirty: the forest may still hold a union
	// that no live edge supports (union-find cannot un-union), and the
	// next query must recompute. Deleting an unmarked edge from a clean
	// graph leaves the spanning forest intact and sets nothing.
	// dirtyComps holds the labels of the components those deletions
	// touched since the last recompute — the bounded "blast radius"
	// reported to operators.
	dirty        bool
	dirtyComps   map[int32]struct{}
	sinceRecomp  int // accepted batches since the last recompute
	appends      int64
	deletes      int64
	queries      int64
	recomputes   int64
	recompErrors int64
	rc           recompute
}

// NewState builds an empty streaming graph on n vertices.
func NewState(n int, cfg Config) (*State, error) {
	if n < 0 || n > sparse.MaxVertices {
		return nil, fmt.Errorf("stream: vertex count %d out of range [0,%d]", n, sparse.MaxVertices)
	}
	if !cfg.Engine.Valid() {
		return nil, fmt.Errorf("stream: invalid recompute engine %d", cfg.Engine)
	}
	if !cfg.Engine.Sparse() && n > gcacc.DenseCutoff {
		return nil, fmt.Errorf("stream: dense recompute engine %s needs n ≤ %d, got %d",
			cfg.Engine, gcacc.DenseCutoff, n)
	}
	s := &State{
		cfg:        cfg,
		n:          n,
		pos:        make(map[uint64]int32),
		uf:         graph.NewUnionFind(n),
		dirtyComps: make(map[int32]struct{}),
	}
	s.rc.s = s
	return s, nil
}

// N returns the vertex count.
func (s *State) N() int { return s.n }

// Epoch returns the current mutation epoch.
func (s *State) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Info snapshots the graph's observability counters.
func (s *State) Info() Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Info{
		N:               s.n,
		Edges:           len(s.edges),
		Epoch:           s.epoch,
		Dirty:           s.dirty,
		DirtyComponents: len(s.dirtyComps),
		Appends:         s.appends,
		Deletes:         s.deletes,
		Queries:         s.queries,
		Recomputes:      s.recomputes,
		Engine:          s.cfg.Engine.String(),
	}
}

// maxLiveEdges bounds the live edge set so that pos's int32 indices
// cannot overflow, whatever Config.MaxEdges says.
const maxLiveEdges = math.MaxInt32

// edgeKey packs a canonical edge into the live index's key: a uint64 key
// takes the runtime's specialised 64-bit map path, a struct key does not.
func edgeKey(e sparse.Edge) uint64 { return uint64(e.U)<<32 | uint64(e.V) }

// canonical validates a batch and returns it in canonical (U < V) form.
// Validation is all-or-nothing so a rejected batch is atomic.
func (s *State) canonical(edges []sparse.Edge) ([]sparse.Edge, error) {
	out := make([]sparse.Edge, len(edges))
	for i, e := range edges {
		if e.U < 0 || e.V < 0 || int(e.U) >= s.n || int(e.V) >= s.n {
			return nil, fmt.Errorf("%w: endpoint of (%d,%d) outside [0,%d)", ErrInvalidEdge, e.U, e.V, s.n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("%w: self-loop at vertex %d", ErrInvalidEdge, e.U)
		}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		out[i] = e
	}
	return out, nil
}

// admitLocked runs the shared mutation preamble: epoch precondition,
// batch validation, and the injected mid-batch abort — all before any
// edge is applied, so every failure leaves the graph untouched.
func (s *State) admitLocked(edges []sparse.Edge, expect int64) ([]sparse.Edge, error) {
	if expect != NoEpoch {
		if expect < 0 || uint64(expect) != s.epoch {
			return nil, fmt.Errorf("%w: expected epoch %d, graph at %d", ErrEpochConflict, expect, s.epoch)
		}
	}
	batch, err := s.canonical(edges)
	if err != nil {
		return nil, err
	}
	if s.cfg.Fault != nil {
		if err := s.cfg.Fault.BeforeBatch(); err != nil {
			return nil, err
		}
	}
	return batch, nil
}

// Append applies one batch of edge insertions. The batch is atomic:
// either every edge is applied (duplicates counting as no-ops) and the
// epoch advances, or the graph is unchanged. expect, unless NoEpoch,
// must equal the current epoch (optimistic concurrency).
func (s *State) Append(ctx context.Context, edges []sparse.Edge, expect int64) (Mutation, error) {
	if err := ctx.Err(); err != nil {
		return Mutation{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	batch, err := s.admitLocked(edges, expect)
	if err != nil {
		return Mutation{}, err
	}
	limit := maxLiveEdges
	if s.cfg.MaxEdges > 0 {
		limit = min(limit, s.cfg.MaxEdges)
	}
	if len(s.edges)+len(batch) > limit {
		// The batch may not fit: count only the edges it would add.
		fresh := 0
		seen := make(map[uint64]struct{}, len(batch))
		for _, e := range batch {
			k := edgeKey(e)
			if _, dup := s.pos[k]; dup {
				continue
			}
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			fresh++
		}
		if len(s.edges)+fresh > limit {
			return Mutation{}, fmt.Errorf("%w: %d live + %d new > %d",
				ErrEdgeLimit, len(s.edges), fresh, limit)
		}
	}
	m := Mutation{}
	for _, e := range batch {
		k := edgeKey(e)
		if _, dup := s.pos[k]; dup {
			m.Ignored++
			continue
		}
		s.pos[k] = int32(len(s.edges))
		s.edges = append(s.edges, e)
		s.tree = append(s.tree, s.uf.Union(int(e.U), int(e.V)))
		m.Applied++
	}
	s.epoch++
	s.sinceRecomp++
	s.appends++
	m.Epoch = s.epoch
	m.Dirty = s.dirty
	return m, nil
}

// Delete applies one batch of edge retractions. Absent edges are no-ops.
// Retracting a non-tree edge from a clean graph leaves it clean; any
// other applied retraction marks its component dirty and forces a full
// recompute before the next query answers. The batch is atomic under
// the same precondition rules as Append.
func (s *State) Delete(ctx context.Context, edges []sparse.Edge, expect int64) (Mutation, error) {
	if err := ctx.Err(); err != nil {
		return Mutation{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	batch, err := s.admitLocked(edges, expect)
	if err != nil {
		return Mutation{}, err
	}
	m := Mutation{}
	for _, e := range batch {
		k := edgeKey(e)
		i, ok := s.pos[k]
		if !ok {
			m.Ignored++
			continue
		}
		tree := s.tree[i]
		// Swap-remove: the last edge takes the deleted one's slot.
		last := len(s.edges) - 1
		moved := s.edges[last]
		s.edges[i] = moved
		s.tree[i] = s.tree[last]
		s.pos[edgeKey(moved)] = i
		s.edges = s.edges[:last]
		s.tree = s.tree[:last]
		delete(s.pos, k)
		m.Applied++
		if tree || s.dirty {
			// The forest may have this union baked in; record the blast
			// radius by its (stale) label and let the recompute settle it.
			s.dirtyComps[int32(s.uf.Label(int(e.U)))] = struct{}{}
			s.dirty = true
		}
	}
	s.epoch++
	s.sinceRecomp++
	s.deletes++
	m.Epoch = s.epoch
	m.Dirty = s.dirty
	return m, nil
}

// needsRecomputeLocked reports whether the next query must run the full
// engine first: the forest is dirty, or the conformance period elapsed.
func (s *State) needsRecomputeLocked() bool {
	if s.dirty {
		return true
	}
	return s.cfg.RecomputePeriod > 0 && s.sinceRecomp >= s.cfg.RecomputePeriod
}

// Components answers a query at the current epoch, recomputing first if
// the deletion policy or the conformance period requires it.
func (s *State) Components(ctx context.Context) (*Snapshot, error) {
	return s.components(ctx, true)
}

// components is Components with the labelling optional: a snapshot
// without labels reads only the forest's set count.
func (s *State) components(ctx context.Context, labels bool) (*Snapshot, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := &Snapshot{Engine: "unionfind"}
	if s.needsRecomputeLocked() {
		rounds, err := s.recomputeLocked(ctx)
		if err != nil {
			return nil, err
		}
		snap.Recomputed = true
		snap.Engine = s.cfg.Engine.String()
		snap.Rounds = rounds
	}
	snap.Epoch = s.epoch
	snap.Components = s.uf.Sets()
	if labels {
		snap.Labels = s.uf.Labels(nil)
	}
	s.queries++
	return snap, nil
}

// Recompute forces a full engine recompute now, regardless of policy.
func (s *State) Recompute(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.recomputeLocked(ctx)
	return err
}

// recomputeLocked runs the configured engine over the live edge list,
// lent as is, and in parallel rebuilds the forest and the tree bits from
// the same list (recompute), then requires the engine's labelling to
// equal the rebuilt forest's (checkLabelsLocked). On error (including
// injected step faults, context cancellation mid-recompute and a
// labelling the forest contradicts) the recompute does not count, and a
// dirty graph stays dirty — a later query retries. The rebuilt forest
// and bits are correct for the live list whatever the engine did.
func (s *State) recomputeLocked(ctx context.Context) (rounds int, err error) {
	s.rc.ctx = ctx
	s.rc.group.Run(&s.rc, 2)
	rep, err := s.rc.rep, s.rc.err
	s.rc.ctx, s.rc.rep, s.rc.err = nil, nil, nil
	if err == nil {
		err = s.checkLabelsLocked(rep.Labels)
	}
	if err != nil {
		s.recompErrors++
		return 0, err
	}
	s.dirty = false
	clear(s.dirtyComps)
	s.sinceRecomp = 0
	s.recomputes++
	return rep.Generations, nil
}

// checkLabelsLocked requires an engine's labelling to equal the forest's:
// the union-find pass judges the engine on every recompute.
func (s *State) checkLabelsLocked(labels []int) error {
	if len(labels) != s.n {
		return fmt.Errorf("stream: %s recompute labelled %d vertices, graph has %d", s.cfg.Engine, len(labels), s.n)
	}
	for v, l := range labels {
		if want := s.uf.Label(v); l != want {
			return fmt.Errorf("stream: %s recompute labels vertex %d as %d, union-find as %d", s.cfg.Engine, v, l, want)
		}
	}
	return nil
}

// recompute is one recompute as a two-shard par.Job, run under the
// state's lock. Shard 0, on the calling goroutine, runs the engine over
// the borrowed live list; shard 1, on a pool worker when one is free,
// resets the forest and unions the list into it in order, setting each
// edge's tree bit. Both only read the list and only the pass writes the
// forest and the bits, so the sequential pass overlaps the engine run
// instead of following it.
type recompute struct {
	s     *State
	group par.Group
	ctx   context.Context
	rep   *gcacc.Report
	err   error
}

// RunShard runs the engine (shard 0) or the union-find pass (shard 1).
func (rc *recompute) RunShard(shard int) {
	s := rc.s
	if shard == 0 {
		rc.rep, rc.err = gcacc.ConnectedComponentsSparse(rc.ctx, sparse.Borrow(s.n, s.edges), gcacc.Options{
			Engine:  s.cfg.Engine,
			Workers: s.cfg.Workers,
			Fault:   s.cfg.Fault,
		})
		return
	}
	s.uf.Reset()
	for i, e := range s.edges {
		s.tree[i] = s.uf.Union(int(e.U), int(e.V))
	}
}
