package service

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gcacc"
	"gcacc/internal/graph"
	"gcacc/internal/sparse"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentIdenticalRequestsOneFill is the determinism contract of
// the serving layer: N concurrent identical requests return bit-identical
// labels, and the cache is filled exactly once — one computation serves
// everyone via coalescing or the cache.
func TestConcurrentIdenticalRequestsOneFill(t *testing.T) {
	svc := New(Config{Workers: 4, QueueDepth: 64})
	defer svc.Close()

	g := graph.Gnp(48, 0.08, rand.New(rand.NewSource(7)))
	const n = 32
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = svc.Submit(context.Background(), Request{Graph: g, Engine: gcacc.EngineGCA})
		}(i)
	}
	wg.Wait()

	want := graph.ConnectedComponentsUnionFind(g)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, errs[i])
		}
		if len(results[i].Labels) != len(want) {
			t.Fatalf("request %d: %d labels, want %d", i, len(results[i].Labels), len(want))
		}
		for v, l := range results[i].Labels {
			if l != want[v] {
				t.Fatalf("request %d: label[%d] = %d, want %d", i, v, l, want[v])
			}
		}
	}

	st := svc.Stats()
	if st.CacheMisses != 1 {
		t.Errorf("cache fills = %d, want exactly 1 (hits %d, coalesced %d)",
			st.CacheMisses, st.CacheHits, st.Coalesced)
	}
	if st.Completed != 1 {
		t.Errorf("completed engine runs = %d, want 1", st.Completed)
	}
	if st.CacheHits+st.Coalesced != n-1 {
		t.Errorf("hits(%d) + coalesced(%d) = %d, want %d",
			st.CacheHits, st.Coalesced, st.CacheHits+st.Coalesced, n-1)
	}
}

// TestQueueFullAdmission pins the admission contract: with the one worker
// blocked and the queue at capacity, the next Submit is rejected
// immediately with ErrQueueFull, and every admitted job still completes.
func TestQueueFullAdmission(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc := New(Config{Workers: 1, QueueDepth: 2, CacheEntries: -1})
	svc.testHookJobRunning = func(*job) {
		once.Do(func() { close(started) })
		<-release
	}
	defer svc.Close()

	graphs := []*graph.Graph{graph.Path(8), graph.Cycle(8), graph.Star(8)}
	errs := make(chan error, len(graphs))
	submit := func(g *graph.Graph) {
		_, err := svc.Submit(context.Background(), Request{Graph: g, Engine: gcacc.EngineSequential})
		errs <- err
	}
	go submit(graphs[0])
	<-started // worker occupied, queue empty

	go submit(graphs[1])
	go submit(graphs[2])
	waitFor(t, "queue to fill", func() bool { return svc.Stats().QueueDepth == 2 })

	if _, err := svc.Submit(context.Background(), Request{Graph: graph.Complete(5), Engine: gcacc.EngineSequential}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit into full queue: err = %v, want ErrQueueFull", err)
	}
	if got := svc.Stats().RejectedFull; got != 1 {
		t.Errorf("rejected_queue_full = %d, want 1", got)
	}

	close(release)
	for range graphs {
		if err := <-errs; err != nil {
			t.Fatalf("admitted job failed: %v", err)
		}
	}
}

// TestCancelledContextAbortsMidRun cancels a request shortly after its
// engine run starts; the run must abort with the context's error and the
// worker must survive to serve the next request (Close would hang on a
// leaked or wedged worker).
func TestCancelledContextAbortsMidRun(t *testing.T) {
	started := make(chan struct{})
	var once sync.Once
	svc := New(Config{Workers: 1})
	svc.testHookJobRunning = func(*job) {
		once.Do(func() { close(started) })
	}

	// Big enough that the 12-generation program runs for tens of
	// milliseconds, also on the chained path — the cancel below lands
	// mid-run.
	g := graph.Gnp(1024, 0.03, rand.New(rand.NewSource(3)))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errCh := make(chan error, 1)
	go func() {
		_, err := svc.Submit(ctx, Request{Graph: g, Engine: gcacc.EngineGCA})
		errCh <- err
	}()
	<-started
	time.Sleep(2 * time.Millisecond)
	cancel()

	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit: err = %v, want context.Canceled", err)
	}
	waitFor(t, "worker to retire the job", func() bool { return svc.Stats().InFlight == 0 })

	// The pool is still alive: a fresh request completes.
	res, err := svc.Submit(context.Background(), Request{Graph: graph.Path(6), Engine: gcacc.EngineGCA})
	if err != nil {
		t.Fatalf("submit after cancel: %v", err)
	}
	if res.Components != 1 {
		t.Fatalf("components = %d, want 1", res.Components)
	}
	if got := svc.Stats().Canceled; got != 1 {
		t.Errorf("canceled = %d, want 1", got)
	}
	svc.Close() // hangs (test timeout) if the cancel leaked a worker
}

// TestFollowerOutlivesLeaderCancel cancels the leader of a coalesced job
// while the job runs. The follower's own context is still live, so it
// must not inherit the leader's context.Canceled: it re-enters admission,
// leads a fresh job and gets union-find-correct labels.
func TestFollowerOutlivesLeaderCancel(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	svc := New(Config{Workers: 1})
	svc.testHookJobRunning = func(*job) {
		once.Do(func() {
			close(started)
			<-release
		})
	}
	defer svc.Close()

	g := graph.Gnp(40, 0.05, rand.New(rand.NewSource(12)))
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderErr := make(chan error, 1)
	go func() {
		_, err := svc.Submit(leaderCtx, Request{Graph: g, Engine: gcacc.EngineGCA})
		leaderErr <- err
	}()
	<-started // the leader's job is running, held in the hook

	type outcome struct {
		res *Result
		err error
	}
	follower := make(chan outcome, 1)
	go func() {
		res, err := svc.Submit(context.Background(), Request{Graph: g, Engine: gcacc.EngineGCA})
		follower <- outcome{res, err}
	}()
	waitFor(t, "the follower to join the flight", func() bool { return svc.Stats().Coalesced == 1 })

	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: err = %v, want context.Canceled", err)
	}
	close(release) // the job now sees the leader's cancellation and fails

	got := <-follower
	if got.err != nil {
		t.Fatalf("follower inherited the leader's failure: %v", got.err)
	}
	if want := graph.ConnectedComponentsUnionFind(g); !slices.Equal(got.res.Labels, want) {
		t.Fatalf("follower labels = %v, want %v", got.res.Labels, want)
	}
	st := svc.Stats()
	if st.Submitted != 2 || st.Canceled != 1 || st.Completed != 1 {
		t.Errorf("submitted=%d canceled=%d completed=%d, want 2/1/1", st.Submitted, st.Canceled, st.Completed)
	}
}

// TestFollowerSharesJobBudget: a job that runs out of its own deadline
// budget fails every caller on it. A follower whose context is live does
// not re-enter admission in that case — the budget binds it too — so k
// coalesced callers cost one budget and one job, not k of each.
func TestFollowerSharesJobBudget(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	var runs atomic.Int32
	svc := New(Config{Workers: 1, DefaultTimeout: 20 * time.Millisecond})
	svc.testHookJobRunning = func(jb *job) {
		runs.Add(1)
		once.Do(func() {
			close(started)
			<-release
		})
		<-jb.ctx.Done() // every job is held past its budget
	}
	defer svc.Close()

	g := graph.Gnp(40, 0.05, rand.New(rand.NewSource(13)))
	errs := make(chan error, 2)
	submit := func() {
		_, err := svc.Submit(context.Background(), Request{Graph: g, Engine: gcacc.EngineGCA})
		errs <- err
	}
	go submit()
	<-started // the leader's job is running, held in the hook
	go submit()
	waitFor(t, "the follower to join the flight", func() bool { return svc.Stats().Coalesced == 1 })
	close(release)

	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("caller %d: err = %v, want context.DeadlineExceeded", i, err)
		}
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("%d jobs ran, want 1: the follower re-entered admission after the job's own budget ran out", n)
	}
	st := svc.Stats()
	if st.Submitted != 2 || st.Canceled != 1 || st.Coalesced != 1 {
		t.Errorf("submitted=%d canceled=%d coalesced=%d, want 2/1/1", st.Submitted, st.Canceled, st.Coalesced)
	}
}

// TestCloseDrainsQueuedJobs verifies graceful shutdown: jobs already
// admitted run to completion, new submissions are rejected with
// ErrClosed.
func TestCloseDrainsQueuedJobs(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc := New(Config{Workers: 1, QueueDepth: 8, CacheEntries: -1})
	svc.testHookJobRunning = func(*job) {
		once.Do(func() { close(started) })
		<-release
	}

	graphs := []*graph.Graph{graph.Path(8), graph.Cycle(8), graph.Star(8)}
	errs := make(chan error, len(graphs))
	for _, g := range graphs {
		go func(g *graph.Graph) {
			_, err := svc.Submit(context.Background(), Request{Graph: g, Engine: gcacc.EngineSequential})
			errs <- err
		}(g)
	}
	<-started
	waitFor(t, "queue to hold the rest", func() bool { return svc.Stats().QueueDepth == 2 })

	closed := make(chan struct{})
	go func() { svc.Close(); close(closed) }()
	close(release)
	<-closed

	for range graphs {
		if err := <-errs; err != nil {
			t.Fatalf("drained job failed: %v", err)
		}
	}
	if _, err := svc.Submit(context.Background(), Request{Graph: graph.Path(4), Engine: gcacc.EngineSequential}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: err = %v, want ErrClosed", err)
	}
}

func TestAdmissionValidation(t *testing.T) {
	svc := New(Config{MaxVertices: 8})
	defer svc.Close()
	ctx := context.Background()

	if _, err := svc.Submit(ctx, Request{Graph: nil}); !errors.Is(err, ErrNilGraph) {
		t.Errorf("nil graph: err = %v, want ErrNilGraph", err)
	}
	if _, err := svc.Submit(ctx, Request{Graph: graph.Path(4), Engine: gcacc.Engine(99)}); !errors.Is(err, ErrInvalidEngine) {
		t.Errorf("invalid engine: err = %v, want ErrInvalidEngine", err)
	}
	if _, err := svc.Submit(ctx, Request{Graph: graph.Path(9)}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized graph: err = %v, want ErrTooLarge", err)
	}
	if got := svc.Stats().RejectedInvalid; got != 3 {
		t.Errorf("rejected_invalid = %d, want 3", got)
	}
}

// TestAdmissionDenseCutoff pins the dense-engine guardrail: above
// gcacc.DenseCutoff, dense-only engines are rejected with ErrDenseOnly
// while the sparse-capable ones run. The cutoff is the constant ToDense
// enforces, not a knob, so no configuration can admit a graph the dense
// engines would then fail on. A sparse graph just above it costs a few
// bytes.
func TestAdmissionDenseCutoff(t *testing.T) {
	svc := New(Config{MaxVertices: 2 * gcacc.DenseCutoff})
	defer svc.Close()
	ctx := context.Background()

	big := sparse.New(gcacc.DenseCutoff + 1)
	big.AddEdge(0, gcacc.DenseCutoff)
	for _, e := range gcacc.Engines() {
		res, err := svc.Submit(ctx, Request{Sparse: big, Engine: e})
		if e.Sparse() {
			if err != nil {
				t.Errorf("sparse engine %s above cutoff: %v", e, err)
			} else if res.Components != gcacc.DenseCutoff || res.Labels[gcacc.DenseCutoff] != 0 {
				t.Errorf("sparse engine %s above cutoff: %d components", e, res.Components)
			}
		} else if !errors.Is(err, ErrDenseOnly) {
			t.Errorf("dense engine %s above cutoff: err = %v, want ErrDenseOnly", e, err)
		}
	}
	// At the cutoff, every engine is admitted: an expired context is the
	// first thing to stop a dense engine there, after admission.
	done, cancel := context.WithCancel(ctx)
	cancel()
	atCutoff := Request{Sparse: sparse.New(gcacc.DenseCutoff), Engine: gcacc.EngineGCA}
	if _, err := svc.Submit(done, atCutoff); !errors.Is(err, context.Canceled) {
		t.Errorf("dense engine at cutoff: err = %v, want admission then context.Canceled", err)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	svc := New(Config{CacheEntries: 2})
	defer svc.Close()
	ctx := context.Background()

	graphs := []*graph.Graph{graph.Path(10), graph.Cycle(10), graph.Star(10)}
	for _, g := range graphs {
		if _, err := svc.Submit(ctx, Request{Graph: g, Engine: gcacc.EngineSequential}); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if st.CacheEvictions != 1 || st.CacheLen != 2 {
		t.Fatalf("evictions = %d len = %d, want 1 and 2", st.CacheEvictions, st.CacheLen)
	}
	// The first graph was evicted: submitting it again is a miss, the
	// third is a hit.
	if res, err := svc.Submit(ctx, Request{Graph: graphs[2], Engine: gcacc.EngineSequential}); err != nil || !res.Cached {
		t.Fatalf("recent entry: cached = %v err = %v, want hit", res != nil && res.Cached, err)
	}
	if res, err := svc.Submit(ctx, Request{Graph: graphs[0], Engine: gcacc.EngineSequential}); err != nil || res.Cached {
		t.Fatalf("evicted entry: cached = %v err = %v, want recompute", res != nil && res.Cached, err)
	}
}

// TestCachedResultIsCallerOwned guards against cache poisoning: a caller
// mutating its labels must not affect later hits.
func TestCachedResultIsCallerOwned(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	ctx := context.Background()
	g := graph.Path(6)

	first, err := svc.Submit(ctx, Request{Graph: g, Engine: gcacc.EngineGCA})
	if err != nil {
		t.Fatal(err)
	}
	first.Labels[0] = -999
	second, err := svc.Submit(ctx, Request{Graph: g, Engine: gcacc.EngineGCA})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second identical request should be a cache hit")
	}
	if second.Labels[0] == -999 {
		t.Fatal("caller mutation leaked into the cache")
	}
}

// TestAllEnginesThroughService runs the same graph through every engine
// behind the serving layer; the labelings must agree (the facade's
// engine-equivalence contract survives the queue/cache/coalescing path).
func TestAllEnginesThroughService(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	ctx := context.Background()
	g := graph.Gnp(24, 0.1, rand.New(rand.NewSource(11)))
	want := graph.ConnectedComponentsUnionFind(g)

	for _, e := range gcacc.Engines() {
		res, err := svc.Submit(ctx, Request{Graph: g, Engine: e})
		if err != nil {
			t.Fatalf("engine %s: %v", e, err)
		}
		for v, l := range res.Labels {
			if l != want[v] {
				t.Fatalf("engine %s: label[%d] = %d, want %d", e, v, l, want[v])
			}
		}
	}
	if st := svc.Stats(); st.CacheMisses != int64(len(gcacc.Engines())) {
		t.Errorf("distinct engines must be distinct cache keys: misses = %d", st.CacheMisses)
	}
}

func TestDefaultTimeoutExpiresQueuedJob(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: -1, DefaultTimeout: 5 * time.Millisecond})
	// Only the first job blocks; it occupies the sole worker while the
	// second job's implicit deadline expires in the queue.
	svc.testHookJobRunning = func(*job) {
		once.Do(func() {
			close(started)
			<-release
		})
	}
	defer svc.Close()

	blocker := make(chan error, 1)
	go func() {
		_, err := svc.Submit(context.Background(), Request{Graph: graph.Path(8), Engine: gcacc.EngineSequential})
		blocker <- err
	}()
	<-started

	queued := make(chan error, 1)
	go func() {
		_, err := svc.Submit(context.Background(), Request{Graph: graph.Path(4), Engine: gcacc.EngineSequential})
		queued <- err
	}()
	waitFor(t, "second job to queue", func() bool { return svc.Stats().QueueDepth == 1 })
	time.Sleep(10 * time.Millisecond) // let the 5 ms implicit deadline lapse
	close(release)

	if err := <-queued; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued job past its deadline: err = %v, want DeadlineExceeded", err)
	}
	// The blocker's own deadline also lapsed while it sat in the hook.
	if err := <-blocker; err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocking job: %v", err)
	}
}
