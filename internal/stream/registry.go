package stream

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"gcacc"
	"gcacc/internal/fault"
	"gcacc/internal/metrics"
	"gcacc/internal/sparse"
)

// Registry admission errors; the serving layer maps these onto HTTP
// statuses (404, 409, 422, ...).
var (
	ErrUnknownGraph = errors.New("stream: unknown graph")
	ErrGraphExists  = errors.New("stream: graph already exists")
	ErrGraphLimit   = errors.New("stream: graph limit reached")
	ErrBatchLimit   = errors.New("stream: batch limit exceeded")
	ErrBadName      = errors.New("stream: invalid graph name")
)

// RegistryConfig shapes the named-graph tier. Zero values pick the
// documented defaults.
type RegistryConfig struct {
	// MaxGraphs bounds the number of live named graphs (default 64).
	MaxGraphs int
	// MaxVertices bounds each graph's vertex count (default 1<<20,
	// capped at sparse.MaxVertices).
	MaxVertices int
	// MaxEdges bounds each graph's live edge set (0 = unbounded).
	MaxEdges int
	// MaxBatch bounds the edges accepted in one mutation batch
	// (default 65536; batches beyond it are rejected with ErrBatchLimit).
	MaxBatch int
	// Engine is the recompute engine for every graph (zero value selects
	// EngineLiuTarjan; EngineGCA cannot be a registry-wide default since
	// it densifies, but small-n registries may set it explicitly).
	Engine gcacc.Engine
	// Workers is passed to recompute engines (< 1 selects GOMAXPROCS).
	Workers int
	// RecomputePeriod is each graph's conformance recompute period
	// (see Config.RecomputePeriod; 0 recomputes only when a deletion
	// requires it).
	RecomputePeriod int
	// Fault threads the chaos injector into batches and recomputes.
	Fault *fault.Injector
	// Clock supplies time for the latency histograms; nil selects the
	// real clock.
	Clock fault.Clock
}

func (c RegistryConfig) withDefaults() RegistryConfig {
	if c.MaxGraphs <= 0 {
		c.MaxGraphs = 64
	}
	if c.MaxVertices <= 0 {
		c.MaxVertices = 1 << 20
	}
	if c.MaxVertices > sparse.MaxVertices {
		c.MaxVertices = sparse.MaxVertices
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 65536
	}
	if c.Engine == gcacc.EngineGCA {
		c.Engine = gcacc.EngineLiuTarjan
	}
	if c.Clock == nil {
		c.Clock = fault.RealClock()
	}
	return c
}

// registryMetrics aggregates the streaming tier's counters across all
// named graphs, on the shared internal/metrics primitives.
type registryMetrics struct {
	created        metrics.Counter
	dropped        metrics.Counter
	appends        metrics.Counter
	deletes        metrics.Counter
	queries        metrics.Counter
	appendedEdges  metrics.Counter
	deletedEdges   metrics.Counter
	rejected       metrics.Counter // admission failures of any kind
	epochConflicts metrics.Counter
	recomputes     metrics.Counter

	appendTime    metrics.Histogram
	queryTime     metrics.Histogram
	recomputeTime metrics.Histogram
}

// RegistryStats is the JSON snapshot served on the stats endpoint and
// expvar.
type RegistryStats struct {
	Graphs    int      `json:"graphs"`
	MaxGraphs int      `json:"max_graphs"`
	Names     []string `json:"names,omitempty"`

	Created        int64 `json:"created"`
	Dropped        int64 `json:"dropped"`
	Appends        int64 `json:"appends"`
	Deletes        int64 `json:"deletes"`
	Queries        int64 `json:"queries"`
	AppendedEdges  int64 `json:"appended_edges"`
	DeletedEdges   int64 `json:"deleted_edges"`
	Rejected       int64 `json:"rejected"`
	EpochConflicts int64 `json:"epoch_conflicts"`
	Recomputes     int64 `json:"recomputes"`

	// Faults snapshots the registry-level injector's counters; nil when
	// no injector is configured.
	Faults *fault.Counters `json:"faults,omitempty"`

	AppendTime    metrics.HistogramSnapshot `json:"append_time"`
	QueryTime     metrics.HistogramSnapshot `json:"query_time"`
	RecomputeTime metrics.HistogramSnapshot `json:"recompute_time"`
}

// Registry is the named-graph tier: a concurrency-safe map from graph
// names to streaming states, with admission limits and aggregated
// metrics. Graph operations lock only the addressed graph; the registry
// lock covers the name table alone, so traffic to different graphs
// proceeds in parallel.
type Registry struct {
	cfg RegistryConfig

	mu     sync.Mutex
	graphs map[string]*State

	m registryMetrics
}

// NewRegistry builds an empty registry.
func NewRegistry(cfg RegistryConfig) *Registry {
	return &Registry{cfg: cfg.withDefaults(), graphs: make(map[string]*State)}
}

// Config returns the registry's effective (defaulted) configuration.
func (r *Registry) Config() RegistryConfig { return r.cfg }

// validName bounds graph names to 1..64 characters of [A-Za-z0-9._-] so
// they embed safely in URLs, logs and metrics keys.
func validName(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Create registers an empty named graph on n vertices.
func (r *Registry) Create(name string, n int) (*State, error) {
	if !validName(name) {
		r.m.rejected.Inc()
		return nil, fmt.Errorf("%w: %q (want 1-64 chars of [A-Za-z0-9._-])", ErrBadName, name)
	}
	if n < 0 || n > r.cfg.MaxVertices {
		r.m.rejected.Inc()
		return nil, fmt.Errorf("stream: vertex count %d out of range [0,%d]", n, r.cfg.MaxVertices)
	}
	st, err := NewState(n, Config{
		Engine:          r.cfg.Engine,
		Workers:         r.cfg.Workers,
		RecomputePeriod: r.cfg.RecomputePeriod,
		MaxEdges:        r.cfg.MaxEdges,
		Fault:           r.cfg.Fault,
	})
	if err != nil {
		r.m.rejected.Inc()
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.graphs[name]; ok {
		r.m.rejected.Inc()
		return nil, fmt.Errorf("%w: %q", ErrGraphExists, name)
	}
	if len(r.graphs) >= r.cfg.MaxGraphs {
		r.m.rejected.Inc()
		return nil, fmt.Errorf("%w: %d graphs live", ErrGraphLimit, len(r.graphs))
	}
	r.graphs[name] = st
	r.m.created.Inc()
	return st, nil
}

// Get resolves a named graph.
func (r *Registry) Get(name string) (*State, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.graphs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownGraph, name)
	}
	return st, nil
}

// Drop removes a named graph.
func (r *Registry) Drop(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.graphs[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownGraph, name)
	}
	delete(r.graphs, name)
	r.m.dropped.Inc()
	return nil
}

// Names lists the live graph names in sorted order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.graphs))
	for name := range r.graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Append applies an edge-append batch to a named graph, enforcing the
// registry's batch limit and recording metrics.
func (r *Registry) Append(ctx context.Context, name string, edges []sparse.Edge, expect int64) (Mutation, error) {
	st, err := r.Get(name)
	if err != nil {
		r.m.rejected.Inc()
		return Mutation{}, err
	}
	if len(edges) > r.cfg.MaxBatch {
		r.m.rejected.Inc()
		return Mutation{}, fmt.Errorf("%w: %d edges > %d", ErrBatchLimit, len(edges), r.cfg.MaxBatch)
	}
	start := r.cfg.Clock.Now()
	m, err := st.Append(ctx, edges, expect)
	if err != nil {
		r.countMutationError(err)
		return Mutation{}, err
	}
	r.m.appendTime.Observe(r.cfg.Clock.Now().Sub(start))
	r.m.appends.Inc()
	r.m.appendedEdges.Add(int64(m.Applied))
	return m, nil
}

// Delete applies an edge-retraction batch to a named graph.
func (r *Registry) Delete(ctx context.Context, name string, edges []sparse.Edge, expect int64) (Mutation, error) {
	st, err := r.Get(name)
	if err != nil {
		r.m.rejected.Inc()
		return Mutation{}, err
	}
	if len(edges) > r.cfg.MaxBatch {
		r.m.rejected.Inc()
		return Mutation{}, fmt.Errorf("%w: %d edges > %d", ErrBatchLimit, len(edges), r.cfg.MaxBatch)
	}
	m, err := st.Delete(ctx, edges, expect)
	if err != nil {
		r.countMutationError(err)
		return Mutation{}, err
	}
	r.m.deletes.Inc()
	r.m.deletedEdges.Add(int64(m.Applied))
	return m, nil
}

// Components answers a query on a named graph. Without labels the
// snapshot's Labels is nil and a clean graph answers without an O(n)
// pass; a dirty graph still recomputes first.
func (r *Registry) Components(ctx context.Context, name string, labels bool) (*Snapshot, error) {
	st, err := r.Get(name)
	if err != nil {
		r.m.rejected.Inc()
		return nil, err
	}
	start := r.cfg.Clock.Now()
	snap, err := st.components(ctx, labels)
	if err != nil {
		return nil, err
	}
	elapsed := r.cfg.Clock.Now().Sub(start)
	r.m.queryTime.Observe(elapsed)
	r.m.queries.Inc()
	if snap.Recomputed {
		r.m.recomputes.Inc()
		r.m.recomputeTime.Observe(elapsed)
	}
	return snap, nil
}

func (r *Registry) countMutationError(err error) {
	if errors.Is(err, ErrEpochConflict) {
		r.m.epochConflicts.Inc()
		return
	}
	r.m.rejected.Inc()
}

// Stats snapshots the registry.
func (r *Registry) Stats() RegistryStats {
	s := RegistryStats{
		MaxGraphs:      r.cfg.MaxGraphs,
		Names:          r.Names(),
		Created:        r.m.created.Value(),
		Dropped:        r.m.dropped.Value(),
		Appends:        r.m.appends.Value(),
		Deletes:        r.m.deletes.Value(),
		Queries:        r.m.queries.Value(),
		AppendedEdges:  r.m.appendedEdges.Value(),
		DeletedEdges:   r.m.deletedEdges.Value(),
		Rejected:       r.m.rejected.Value(),
		EpochConflicts: r.m.epochConflicts.Value(),
		Recomputes:     r.m.recomputes.Value(),
		AppendTime:     r.m.appendTime.Snapshot(),
		QueryTime:      r.m.queryTime.Snapshot(),
		RecomputeTime:  r.m.recomputeTime.Snapshot(),
	}
	s.Graphs = len(s.Names)
	if r.cfg.Fault != nil {
		c := r.cfg.Fault.Counters()
		s.Faults = &c
	}
	return s
}
