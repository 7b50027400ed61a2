// Package stream is the incremental (dynamic-connectivity) tier: named
// graphs that absorb edge appends through an incremental union-find
// while staying conformant with the full engines through scheduled
// recomputes.
//
// Every scenario below this tier is one-shot — graph in, labels out.
// Here a graph lives across requests: appends union in amortized
// near-constant time, every accepted mutation batch advances an epoch,
// and queries snapshot the labelling at the current epoch. Deletions
// are the hard case for union-find, so the tier is deletion-tolerant
// rather than fully dynamic: a retraction marks the affected components
// dirty and the next query (or an explicit Recompute) runs a full
// recompute over the live edge set with a sparse engine (Liu–Tarjan by
// default; the paper's GCA itself below the dense cutoff), then rebuilds
// the forest from the engine's labelling. The recompute is bounded —
// one engine run, coalesced across queries, never cascading — and the
// forest in between is a safe over-approximation that is never served
// while dirty.
//
// The live edge set is kept as an order-stable list (appends push,
// deletes swap-remove) that the recompute lends to the engine as is:
// the engines' labels and rounds depend only on the edge set, so the
// list is never copied into a graph or sorted, and a recompute costs
// Θ(n + m) per engine round plus the O(n) forest rebuild.
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
	// against the engines. Zero recomputes only when deletions require it.
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
	// edge's key to its index in edges.
	edges []sparse.Edge
	pos   map[uint64]int32
	uf    *graph.UnionFind
	epoch uint64
	// dirty is set by any applied deletion: the forest can no longer be
	// trusted (union-find cannot un-union) and the next query must
	// recompute. dirtyComps holds the labels of components touched by
	// deletions since the last recompute — the bounded "blast radius"
	// reported to operators.
	dirty        bool
	dirtyComps   map[int32]struct{}
	sinceRecomp  int // accepted batches since the last recompute
	appends      int64
	deletes      int64
	queries      int64
	recomputes   int64
	recompErrors int64
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
	return &State{
		cfg:        cfg,
		n:          n,
		pos:        make(map[uint64]int32),
		uf:         graph.NewUnionFind(n),
		dirtyComps: make(map[int32]struct{}),
	}, nil
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
		s.uf.Union(int(e.U), int(e.V))
		m.Applied++
	}
	s.epoch++
	s.sinceRecomp++
	s.appends++
	m.Epoch = s.epoch
	m.Dirty = s.dirty
	return m, nil
}

// Delete applies one batch of edge retractions. Absent edges are no-ops;
// any applied retraction marks its component dirty and forces a full
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
		// Swap-remove: the last edge takes the deleted one's slot.
		last := len(s.edges) - 1
		moved := s.edges[last]
		s.edges[i] = moved
		s.pos[edgeKey(moved)] = i
		s.edges = s.edges[:last]
		delete(s.pos, k)
		// The forest still has this union baked in; record the blast
		// radius by its (stale) label and let the recompute settle it.
		s.dirtyComps[int32(s.uf.Label(int(e.U)))] = struct{}{}
		m.Applied++
	}
	if m.Applied > 0 {
		s.dirty = true
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
// lent as is, and rebuilds the forest from its labelling. On error
// (including injected step faults and context cancellation
// mid-recompute) the forest is unchanged and, if it was dirty, stays
// dirty — a later query retries.
func (s *State) recomputeLocked(ctx context.Context) (rounds int, err error) {
	rep, err := gcacc.ConnectedComponentsSparse(ctx, sparse.Borrow(s.n, s.edges), gcacc.Options{
		Engine:  s.cfg.Engine,
		Workers: s.cfg.Workers,
		Fault:   s.cfg.Fault,
	})
	if err != nil {
		s.recompErrors++
		return 0, err
	}
	if err := s.uf.ResetToLabels(rep.Labels); err != nil {
		s.recompErrors++
		return 0, err
	}
	s.dirty = false
	clear(s.dirtyComps)
	s.sinceRecomp = 0
	s.recomputes++
	return rep.Generations, nil
}
