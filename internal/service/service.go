// Package service is the production serving layer over the gcacc engine
// zoo: a bounded job queue with admission control, a fixed worker pool, a
// content-addressed LRU result cache with in-flight request coalescing,
// a stdlib-only metrics registry, and graceful drain on shutdown.
//
// The design transfers the paper's resource discipline from the machine
// model to the process: just as Brent's principle schedules n² virtual
// cells onto p physical processors with a barrier per generation, the
// service schedules an unbounded request stream onto a fixed goroutine
// budget — p concurrent requests share Config.SimWorkers simulator
// goroutines instead of each spawning GOMAXPROCS of their own, and
// everything beyond the queue bound is rejected at admission rather than
// degrading everyone (the HTTP layer maps that rejection to 429).
//
// Requests are content-addressed: the cache key is the graph's SHA-256
// fingerprint (the canonical edge list, see graph.EdgeHash) plus the
// engine. A request carries its graph as a sparse edge list, so nothing
// on the request path costs n² bits: the adjacency matrix exists only
// inside the dense engines, at or below gcacc.DenseCutoff. Identical
// concurrent requests are coalesced onto one computation — every engine
// is deterministic, so one result serves them all, and a key is filled
// at most once per residency.
//
// The resilience layer (opt-in via Config) handles the two failures a
// deterministic engine zoo can meet: an engine bug and a deep queue. A
// per-engine circuit breaker trips on failing runs (a panicking engine
// panics again on the same input, so nothing is retried) and reroutes
// the engine's traffic to the sequential baseline, and overload
// degradation demotes jobs to it when the queue is deep. Degrading is
// safe because of the conformance contract — every engine labels
// identically (internal/verify proves it) — so a fallback changes
// provenance and cost, never the answer. The chaos tier (internal/fault)
// drives all of it under seeded fault schedules and checks exactly that
// invariant.
package service

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"runtime"
	"sync"
	"time"

	"gcacc"
	"gcacc/internal/fault"
	"gcacc/internal/graph"
	"gcacc/internal/sparse"
)

// Admission errors. The HTTP layer maps these onto status codes
// (ErrQueueFull → 429, ErrTooLarge → 413, ErrDenseOnly → 422,
// ErrClosed → 503, the rest 400).
var (
	ErrQueueFull     = errors.New("service: job queue full")
	ErrClosed        = errors.New("service: shutting down")
	ErrTooLarge      = errors.New("service: graph exceeds the admitted vertex cap")
	ErrNilGraph      = errors.New("service: nil graph")
	ErrInvalidEngine = errors.New("service: invalid engine")
	// ErrDenseOnly rejects a dense-only engine for a graph above the
	// dense cutoff (→ 422): the request is well-formed, but the named
	// engine cannot process an input that size — retrying cannot help,
	// switching to a sparse-capable engine can.
	ErrDenseOnly = errors.New("service: engine needs the dense representation")
	// ErrEnginePanic reports an engine run that panicked; the worker
	// recovered and stays alive (→ 500). A panic counts against the
	// engine's breaker.
	ErrEnginePanic = errors.New("service: engine panicked")
)

// Config sizes the serving layer. The zero value selects sensible
// defaults for every field.
type Config struct {
	// QueueDepth bounds the number of admitted-but-not-yet-running jobs;
	// a full queue rejects with ErrQueueFull. <= 0 selects 64.
	QueueDepth int
	// Workers is the number of pool goroutines executing jobs; <= 0
	// selects 2. This bounds concurrent engine runs, not simulator
	// goroutines — see SimWorkers.
	Workers int
	// SimWorkers is the total simulator-goroutine budget shared by the
	// pool: each running job gets SimWorkers/Workers (at least 1), so p
	// concurrent requests cannot oversubscribe the machine the way p
	// independent core.Run calls (each defaulting to GOMAXPROCS) would.
	// <= 0 selects GOMAXPROCS.
	SimWorkers int
	// CacheEntries is the LRU result-cache capacity in entries; 0 selects
	// 256, negative disables caching entirely.
	CacheEntries int
	// DefaultTimeout is applied to jobs whose request context carries no
	// deadline of its own; 0 means no implicit deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps every job's deadline budget: requests arriving with
	// a longer (or no) deadline are clamped to now+MaxTimeout. 0 means no
	// cap.
	MaxTimeout time.Duration
	// MaxVertices rejects larger graphs at admission with ErrTooLarge;
	// <= 0 selects graph.MaxParseVertices. Raise it to serve the sparse
	// engines on million-vertex graphs. Whatever it is, a dense-only
	// engine (see gcacc.Engine.Sparse) is refused above gcacc.DenseCutoff
	// with ErrDenseOnly — a clear 422 instead of the OOM-shaped timeout a
	// (n+1)×n cell field at n ≫ 4096 would produce.
	MaxVertices int
	// ExpvarName, if non-empty, publishes the Stats snapshot under this
	// expvar key. Publish once per process: expvar panics on duplicates.
	ExpvarName string

	// Fault, if non-nil, injects its deterministic fault schedule into
	// every non-sequential engine run (see internal/fault). The sequential
	// fallback is never injected — that is what makes degrading to it safe.
	Fault *fault.Injector
	// Clock supplies time for queue-wait measurement and breaker
	// cooldowns; nil selects the wall clock. Tests substitute a
	// fault.FakeClock. Context deadlines remain real time.
	Clock fault.Clock
	// BreakerThreshold is the consecutive-failure count that trips an
	// engine's circuit breaker; 0 disables breakers. An open breaker
	// degrades its engine's jobs to the sequential engine, the cheapest
	// there is, so refusing them would save no work.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker reroutes its engine's
	// jobs before letting a half-open probe through; <= 0 selects 500ms.
	BreakerCooldown time.Duration
	// DegradeDepth demotes non-sequential jobs to the sequential engine
	// when the queue depth at dequeue is at or beyond this bound — shed
	// simulator load, keep answering. 0 disables overload degradation.
	DegradeDepth int
}

// Request is one unit of admitted work.
type Request struct {
	// Sparse is the input as a sparse edge list, the one representation
	// of the request path. It must not be mutated while the request is
	// in flight (the fingerprint taken at admission addresses the
	// result).
	Sparse *sparse.Graph
	// Graph is a dense input, accepted for callers that hold one: it is
	// read only by Input, which converts it where a request enters the
	// serving or cluster tier. Set Sparse instead wherever you can.
	Graph *graph.Graph
	// Engine selects the implementation (default EngineGCA).
	Engine gcacc.Engine
	// NoCache bypasses both cache lookup and fill for this request — the
	// load generator's cold path and the throughput benchmark use it.
	NoCache bool
	// Fault, if non-nil, overrides Config.Fault for this request — the
	// HTTP layer's opt-in chaos mode threads per-request schedules here.
	Fault *fault.Injector
}

// Input returns the request's graph as a sparse edge list. A request
// that carries only the dense Graph is converted with sparse.FromDense,
// once: Input keeps the result in Sparse and drops Graph.
func (r *Request) Input() *sparse.Graph {
	if r.Sparse == nil && r.Graph != nil {
		r.Sparse, r.Graph = sparse.FromDense(r.Graph), nil
	}
	return r.Sparse
}

// Result is what a caller gets back. Labels is the caller's own copy.
type Result struct {
	Labels      []int  `json:"labels"`
	Components  int    `json:"components"`
	Engine      string `json:"engine"`
	Generations int    `json:"generations,omitempty"`
	PRAMSteps   int    `json:"pram_steps,omitempty"`
	// Cached reports a result served from the LRU without any engine run.
	Cached bool `json:"cached"`
	// Coalesced reports a result served by joining an identical in-flight
	// computation.
	Coalesced bool `json:"coalesced"`
	// Degraded reports that the service answered with the sequential
	// fallback instead of the requested engine (overload or open
	// breaker). The labels are identical by the conformance contract;
	// degraded results are never cached under the requested engine's key.
	Degraded bool `json:"degraded,omitempty"`
	// Wait is the queue latency (admission → worker pickup) of the run
	// that produced this result; zero for cache hits.
	Wait time.Duration `json:"wait_ns"`
	// Run is the engine execution time of the run that produced this
	// result; zero for cache hits.
	Run time.Duration `json:"run_ns"`
}

// ForCaller returns a caller-owned copy of r (its own Labels slice)
// with per-request provenance. It is the one place a shared result is
// handed out: cache hits, coalesced followers, cache fills and the
// cluster tier's batch twins all copy through it.
func (r *Result) ForCaller(cached, coalesced bool) *Result {
	cp := *r
	cp.Labels = append([]int(nil), r.Labels...)
	cp.Cached = cached
	cp.Coalesced = coalesced
	return &cp
}

// flight is one in-progress computation; followers with the same key
// block on done instead of enqueueing duplicate work.
type flight struct {
	done chan struct{}
	res  *Result
	err  error
	// leaderGone reports that the job failed because its leader's caller
	// gave up, not because the job's own deadline budget ran out.
	leaderGone bool
}

// errBudget is the cause of a job context whose deadline budget
// (DefaultTimeout or MaxTimeout) ran out.
var errBudget = errors.New("service: job deadline budget exhausted")

// job is a queued unit of work.
type job struct {
	ctx        context.Context
	cancel     context.CancelFunc // non-nil when a timeout budget was applied
	req        Request
	key        cacheKey
	useCache   bool
	enqueuedAt time.Time
	fl         *flight
}

// Service is the serving layer. Create with New, stop with Close.
type Service struct {
	cfg       Config
	simPerJob int
	queue     chan *job
	metrics   serviceMetrics
	wg        sync.WaitGroup
	clock     fault.Clock

	// breakers maps each breakable engine to its circuit breaker; nil
	// when breakers are disabled. Immutable after New; the sequential
	// engine deliberately has no entry.
	breakers map[gcacc.Engine]*breaker

	mu       sync.Mutex
	cache    *lruCache // nil when caching is disabled; guarded by mu
	inflight map[cacheKey]*flight
	closed   bool

	// testHookJobRunning, if set before the first Submit, is called by a
	// worker after dequeue and before the engine runs. Test-only.
	testHookJobRunning func(*job)
	// testHookEngineRun, if set before the first Submit, is called with
	// the engine about to run, after the breaker admitted it. Test-only.
	testHookEngineRun func(gcacc.Engine)
}

// New starts the worker pool and returns the service.
func New(cfg Config) *Service {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.SimWorkers <= 0 {
		cfg.SimWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 256
	}
	if cfg.MaxVertices <= 0 {
		cfg.MaxVertices = graph.MaxParseVertices
	}
	if cfg.Clock == nil {
		cfg.Clock = fault.RealClock()
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 500 * time.Millisecond
	}
	s := &Service{
		cfg:      cfg,
		clock:    cfg.Clock,
		queue:    make(chan *job, cfg.QueueDepth),
		inflight: make(map[cacheKey]*flight),
	}
	if cfg.BreakerThreshold > 0 {
		s.breakers = make(map[gcacc.Engine]*breaker)
		for _, e := range gcacc.Engines() {
			if e == gcacc.EngineSequential {
				continue // the fallback of last resort is unbreakered
			}
			s.breakers[e] = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, s.clock)
		}
	}
	s.simPerJob = cfg.SimWorkers / cfg.Workers
	if s.simPerJob < 1 {
		s.simPerJob = 1
	}
	if cfg.CacheEntries > 0 {
		s.cache = newLRUCache(cfg.CacheEntries)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if cfg.ExpvarName != "" {
		expvar.Publish(cfg.ExpvarName, expvar.Func(func() any { return s.Stats() }))
	}
	return s
}

// Config returns the resolved configuration (defaults applied).
func (s *Service) Config() Config { return s.cfg }

// Submit admits, executes (or cache-serves) one request and blocks until
// its result is available or ctx is done. Rejections are immediate:
// ErrQueueFull when the queue is at capacity, ErrClosed after Close has
// begun, ErrTooLarge/ErrNilGraph/ErrInvalidEngine/ErrDenseOnly for
// inadmissible requests.
func (s *Service) Submit(ctx context.Context, req Request) (*Result, error) {
	s.metrics.submitted.Inc()
	g := req.Input()
	if g == nil {
		s.metrics.rejectedInvalid.Inc()
		return nil, ErrNilGraph
	}
	if !req.Engine.Valid() {
		s.metrics.rejectedInvalid.Inc()
		return nil, fmt.Errorf("%w: %d", ErrInvalidEngine, int(req.Engine))
	}
	if g.N() > s.cfg.MaxVertices {
		s.metrics.rejectedInvalid.Inc()
		return nil, fmt.Errorf("%w: %d vertices, cap %d", ErrTooLarge, g.N(), s.cfg.MaxVertices)
	}
	if !req.Engine.Sparse() && g.N() > gcacc.DenseCutoff {
		s.metrics.rejectedInvalid.Inc()
		return nil, fmt.Errorf("%w: engine %q cannot process %d vertices (dense cutoff %d); use a sparse-capable engine (e.g. liutarjan, logdiameter, sequential)",
			ErrDenseOnly, req.Engine, g.N(), gcacc.DenseCutoff)
	}
	if err := ctx.Err(); err != nil {
		// A zero-budget deadline is rejected here, before the queue: it
		// never occupies a slot and never reaches a simulator.
		s.metrics.rejectedExpired.Inc()
		return nil, err
	}

	useCache := s.cfg.CacheEntries > 0 && !req.NoCache // s.cache != nil, read without mu
	var key cacheKey
	if useCache {
		key = cacheKey{fp: g.Fingerprint(), engine: req.Engine}
	}

	for {
		res, retry, err := s.admit(ctx, req, useCache, key)
		if retry {
			continue
		}
		return res, err
	}
}

// isContextErr reports a cancellation or deadline error.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// admit serves one admission attempt: a cache hit, a join of an
// identical in-flight computation, or a new job led by this caller.
// Cache lookup, in-flight join and enqueue happen under one lock so that
// a key is computed at most once per cache residency: a concurrent
// identical request either hits the cache, joins the flight, or becomes
// the unique leader.
//
// A follower shares its leader's job, and with it the job's context:
// when the leader's caller gives up (a proxied request past its peer
// budget, a disconnected client) the job fails with the leader's
// cancellation. retry reports that case for a follower whose own context
// is still live, so that it re-enters admission — it hits the cache,
// joins a fresh flight or leads one. A job that ran out of its own
// deadline budget is not retried: the budget binds its followers too.
func (s *Service) admit(ctx context.Context, req Request, useCache bool, key cacheKey) (res *Result, retry bool, err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.metrics.rejectedClosed.Inc()
		return nil, false, ErrClosed
	}
	if useCache {
		if res, ok := s.cache.get(key); ok {
			s.mu.Unlock()
			s.metrics.cacheHits.Inc()
			return res.ForCaller(true, false), false, nil
		}
		if fl, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			s.metrics.coalesced.Inc()
			res, err := s.await(ctx, fl)
			// With ctx live, err came from the resolved flight, so reading
			// leaderGone is ordered after runJob set it.
			return res, err != nil && ctx.Err() == nil && fl.leaderGone, err
		}
	}

	// Per-job deadline budget: a request with no deadline of its own gets
	// DefaultTimeout, and MaxTimeout caps everyone — including requests
	// that arrived with a longer deadline. Deadlines are real time even
	// under an injected clock.
	jctx := ctx
	var cancel context.CancelFunc
	budget := time.Duration(0)
	if d, has := ctx.Deadline(); !has {
		budget = s.cfg.DefaultTimeout
		if s.cfg.MaxTimeout > 0 && (budget <= 0 || budget > s.cfg.MaxTimeout) {
			budget = s.cfg.MaxTimeout
		}
	} else if s.cfg.MaxTimeout > 0 && time.Until(d) > s.cfg.MaxTimeout {
		budget = s.cfg.MaxTimeout
	}
	if budget > 0 {
		jctx, cancel = context.WithTimeoutCause(ctx, budget, errBudget)
	}
	jb := &job{
		ctx:        jctx,
		cancel:     cancel,
		req:        req,
		key:        key,
		useCache:   useCache,
		enqueuedAt: s.clock.Now(),
		fl:         &flight{done: make(chan struct{})},
	}
	select {
	case s.queue <- jb:
	default:
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		s.metrics.rejectedFull.Inc()
		return nil, false, ErrQueueFull
	}
	if useCache {
		s.inflight[key] = jb.fl
		s.metrics.cacheMisses.Inc()
	}
	s.mu.Unlock()
	s.metrics.accepted.Inc()
	s.metrics.queueDepth.Add(1)

	res, err = s.await(ctx, jb.fl)
	return res, false, err
}

// await blocks until the flight resolves or the caller's ctx is done.
// The computation itself keeps running on the worker when the caller
// gives up — other followers may still want its result.
func (s *Service) await(ctx context.Context, fl *flight) (*Result, error) {
	select {
	case <-fl.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if fl.err != nil {
		return nil, fl.err
	}
	return fl.res.ForCaller(fl.res.Cached, fl.res.Coalesced), nil
}

func (s *Service) worker() {
	defer s.wg.Done()
	for jb := range s.queue {
		s.metrics.queueDepth.Add(-1)
		s.runJob(jb)
	}
}

func (s *Service) runJob(jb *job) {
	wait := s.clock.Now().Sub(jb.enqueuedAt)
	s.metrics.queueWait.Observe(wait)
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)

	res, err := s.executeJob(jb, wait)
	leaderGone := isContextErr(err) && jb.ctx.Err() != nil && context.Cause(jb.ctx) != errBudget
	if jb.cancel != nil {
		jb.cancel()
	}

	switch {
	case err == nil:
		s.metrics.completed.Inc()
	case isContextErr(err):
		s.metrics.canceled.Inc()
	default:
		if errors.Is(err, ErrEnginePanic) {
			s.metrics.enginePanics.Inc()
		}
		s.metrics.failed.Inc()
	}

	// Fill the cache and retire the flight atomically, so the next
	// identical request sees exactly one of: the in-flight entry (join)
	// or the cached result (hit) — never a gap that admits a second run.
	// Degraded results are not cached: they carry the fallback's
	// provenance, and the requested engine should get a real run once the
	// pressure clears.
	if jb.useCache {
		s.mu.Lock()
		if err == nil && !res.Degraded {
			s.metrics.cacheEvictions.Add(int64(s.cache.add(jb.key, res)))
		}
		delete(s.inflight, jb.key)
		s.mu.Unlock()
	}
	jb.fl.res, jb.fl.err, jb.fl.leaderGone = res, err, leaderGone
	close(jb.fl.done)
}

// executeJob runs one dequeued job once: overload degradation, the
// engine's circuit breaker, and the engine run. An open breaker
// reroutes the job to the sequential engine, which has no breaker and is
// never fault-injected. A panic anywhere in the job (engine or test
// hook) is contained to ErrEnginePanic — the worker goroutine survives —
// and a panicking engine run counts against its breaker.
func (s *Service) executeJob(jb *job, wait time.Duration) (res *Result, err error) {
	var br *breaker // observes the engine run, once one is admitted
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("%w: %v", ErrEnginePanic, p)
		}
		if br != nil {
			br.observe(err)
		}
	}()
	if s.testHookJobRunning != nil {
		s.testHookJobRunning(jb)
	}
	if cerr := jb.ctx.Err(); cerr != nil {
		return nil, cerr // deadline passed while queued; no engine run
	}

	engine, degraded := jb.req.Engine, false
	if s.cfg.DegradeDepth > 0 && engine != gcacc.EngineSequential &&
		s.metrics.queueDepth.Value() >= int64(s.cfg.DegradeDepth) {
		engine, degraded = gcacc.EngineSequential, true
		s.metrics.degradedOverload.Inc()
	}
	// br is nil for sequential or when breakers are off.
	if br = s.breakers[engine]; br != nil && !br.allow() {
		engine, degraded, br = gcacc.EngineSequential, true, nil
		s.metrics.fallbackBreaker.Inc()
	}
	opts := gcacc.Options{Engine: engine, Workers: s.simPerJob}
	if engine != gcacc.EngineSequential {
		opts.Fault = jb.req.Fault
		if opts.Fault == nil {
			opts.Fault = s.cfg.Fault
		}
	}
	if s.testHookEngineRun != nil {
		s.testHookEngineRun(engine)
	}
	start := s.clock.Now()
	rep, err := gcacc.ConnectedComponentsSparse(jb.ctx, jb.req.Sparse, opts)
	run := s.clock.Now().Sub(start)
	if err != nil {
		return nil, err
	}
	s.metrics.runTime.Observe(run)
	s.metrics.generations.Add(int64(rep.Generations + rep.PRAMSteps))
	return &Result{
		Labels:      rep.Labels,
		Components:  rep.Components,
		Engine:      engine.String(),
		Generations: rep.Generations,
		PRAMSteps:   rep.PRAMSteps,
		Degraded:    degraded,
		Wait:        wait,
		Run:         run,
	}, nil
}

// CacheLookup probes the result cache for the (fingerprint, engine) key
// without admitting or running anything — the cluster tier's federation
// path, where a non-owner replica asks the shard owner's cache before
// computing locally. A hit marks the entry most recently used and
// returns a caller-owned copy; it is counted as a cache hit. A probe
// never joins an in-flight computation: federation peer calls must stay
// bounded, not block on a running job.
func (s *Service) CacheLookup(fp [32]byte, engine gcacc.Engine) (*Result, bool) {
	if s.cache == nil {
		return nil, false
	}
	key := cacheKey{fp: fp, engine: engine}
	s.mu.Lock()
	res, ok := s.cache.get(key)
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	s.metrics.cacheHits.Inc()
	return res.ForCaller(true, false), true
}

// CacheInsert seeds the result cache with an externally computed result
// under the (fingerprint, engine) key — the cluster tier's fill-back
// path, where a non-owner replica that had to compute locally offers
// the result to the shard owner so the owner's cache converges to
// authoritative coverage of its key range. Degraded results are
// refused, matching the worker-path policy; an in-flight local
// computation for the same key simply overwrites the entry when it
// lands, which is harmless — both results are identical by the
// conformance contract.
func (s *Service) CacheInsert(fp [32]byte, engine gcacc.Engine, res *Result) {
	if s.cache == nil || res == nil || res.Degraded || res.Labels == nil {
		return
	}
	key := cacheKey{fp: fp, engine: engine}
	cp := res.ForCaller(false, false)
	s.mu.Lock()
	evicted := s.cache.add(key, cp)
	s.mu.Unlock()
	s.metrics.cacheEvictions.Add(int64(evicted))
}

// Stats snapshots every metric.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	cacheLen := s.cache.len()
	s.mu.Unlock()
	var breakerOpen, breakerTrips int64
	for _, b := range s.breakers {
		open, trips := b.snapshot()
		if open {
			breakerOpen++
		}
		breakerTrips += trips
	}
	var faults *fault.Counters
	if s.cfg.Fault != nil {
		c := s.cfg.Fault.Counters()
		faults = &c
	}
	m := &s.metrics
	return Stats{
		Workers:          s.cfg.Workers,
		SimWorkersPerJob: s.simPerJob,
		QueueCapacity:    s.cfg.QueueDepth,
		QueueDepth:       m.queueDepth.Value(),
		InFlight:         m.inFlight.Value(),
		Submitted:        m.submitted.Value(),
		Accepted:         m.accepted.Value(),
		RejectedFull:     m.rejectedFull.Value(),
		RejectedInvalid:  m.rejectedInvalid.Value(),
		RejectedClosed:   m.rejectedClosed.Value(),
		RejectedExpired:  m.rejectedExpired.Value(),
		Completed:        m.completed.Value(),
		Failed:           m.failed.Value(),
		Canceled:         m.canceled.Value(),
		BreakerTrips:     breakerTrips,
		BreakerOpen:      breakerOpen,
		FallbackBreaker:  m.fallbackBreaker.Value(),
		DegradedOverload: m.degradedOverload.Value(),
		EnginePanics:     m.enginePanics.Value(),
		Faults:           faults,
		CacheCapacity:    max(s.cfg.CacheEntries, 0),
		CacheLen:         cacheLen,
		CacheHits:        m.cacheHits.Value(),
		CacheMisses:      m.cacheMisses.Value(),
		CacheEvictions:   m.cacheEvictions.Value(),
		Coalesced:        m.coalesced.Value(),
		Generations:      m.generations.Value(),
		QueueWait:        m.queueWait.Snapshot(),
		RunTime:          m.runTime.Snapshot(),
	}
}

// Close stops admission, drains every queued and in-flight job to
// completion, and waits for the pool to exit. Safe to call twice.
func (s *Service) Close() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	if !already {
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
}
