package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"gcacc"
	"gcacc/internal/fault"
	"gcacc/internal/graph"
)

// TestBreakerTripsAndFallsBack pins the breaker→fallback path end to
// end with a real failure, a panicking engine: the panic trips the
// threshold-1 breaker, and the next request for that engine is answered
// by the sequential engine, correctly and explicitly degraded.
func TestBreakerTripsAndFallsBack(t *testing.T) {
	svc := New(Config{Workers: 1, CacheEntries: -1, BreakerThreshold: 1, BreakerCooldown: time.Minute})
	svc.testHookEngineRun = func(e gcacc.Engine) {
		if e == gcacc.EngineGCA {
			panic("engine bug")
		}
	}
	defer svc.Close()

	g := graph.Cycle(6)
	if _, err := svc.Submit(context.Background(), Request{Graph: g, Engine: gcacc.EngineGCA}); !errors.Is(err, ErrEnginePanic) {
		t.Fatalf("err = %v, want ErrEnginePanic", err)
	}
	if st := svc.Stats(); st.BreakerTrips != 1 || st.BreakerOpen != 1 || st.EnginePanics != 1 {
		t.Fatalf("trips=%d open=%d panics=%d, want 1/1/1", st.BreakerTrips, st.BreakerOpen, st.EnginePanics)
	}

	res, err := svc.Submit(context.Background(), Request{Graph: g, Engine: gcacc.EngineGCA})
	if err != nil {
		t.Fatalf("Submit with the breaker open: %v", err)
	}
	if !res.Degraded || res.Engine != "sequential" {
		t.Fatalf("result degraded=%v engine=%q, want degraded sequential fallback", res.Degraded, res.Engine)
	}
	want := graph.ConnectedComponentsUnionFind(g)
	for v, l := range res.Labels {
		if l != want[v] {
			t.Fatalf("label[%d] = %d, want %d", v, l, want[v])
		}
	}
	if st := svc.Stats(); st.FallbackBreaker != 1 {
		t.Errorf("fallback = %d, want 1", st.FallbackBreaker)
	}
}

// TestBreakerProbeContextErrorNoVerdict pins that a half-open probe
// ending in a context error gives no verdict: the next request becomes
// the probe, instead of the engine staying rerouted for good. The
// probe's deadline expires during a GCA run that takes far longer.
func TestBreakerProbeContextErrorNoVerdict(t *testing.T) {
	clk := fault.NewFakeClock(time.Unix(0, 0))
	svc := New(Config{Workers: 1, CacheEntries: -1, Clock: clk, BreakerThreshold: 1, BreakerCooldown: time.Second})
	defer svc.Close()
	svc.breakers[gcacc.EngineGCA].onFailure() // trip
	clk.Advance(time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := svc.Submit(ctx, Request{Graph: graph.Path(1024), Engine: gcacc.EngineGCA}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("probe: err = %v, want DeadlineExceeded", err)
	}

	res, err := svc.Submit(context.Background(), Request{Graph: graph.Cycle(6), Engine: gcacc.EngineGCA})
	if err != nil {
		t.Fatalf("request after the aborted probe: %v", err)
	}
	if res.Degraded || res.Engine != "gca" {
		t.Fatalf("request after the aborted probe: degraded=%v engine=%q, want a gca run as the new probe", res.Degraded, res.Engine)
	}
	if st := svc.Stats(); st.BreakerOpen != 0 || st.BreakerTrips != 1 {
		t.Errorf("open=%d trips=%d, want the breaker closed after 1 trip", st.BreakerOpen, st.BreakerTrips)
	}
}

// TestBreakerHalfOpenRecovery steps the breaker automaton through
// closed → open → half-open → closed and a failed probe, on a fake
// clock so the cooldown costs no real time.
func TestBreakerHalfOpenRecovery(t *testing.T) {
	clk := fault.NewFakeClock(time.Unix(0, 0))
	b := newBreaker(2, 10*time.Second, clk)

	if !b.allow() {
		t.Fatal("new breaker should be closed")
	}
	b.onFailure()
	if !b.allow() {
		t.Fatal("one failure below threshold should not trip")
	}
	b.onFailure()
	if b.allow() {
		t.Fatal("threshold failures should trip the breaker")
	}
	if open, trips := b.snapshot(); !open || trips != 1 {
		t.Fatalf("snapshot = (%v, %d), want open with 1 trip", open, trips)
	}

	clk.Advance(9 * time.Second)
	if b.allow() {
		t.Fatal("breaker admitted before the cooldown elapsed")
	}
	clk.Advance(time.Second)
	if !b.allow() {
		t.Fatal("breaker did not go half-open after the cooldown")
	}
	if b.allow() {
		t.Fatal("half-open breaker admitted a second probe")
	}

	// Failed probe: reopen for another cooldown.
	b.onFailure()
	if open, trips := b.snapshot(); !open || trips != 2 {
		t.Fatalf("after failed probe: (%v, %d), want open with 2 trips", open, trips)
	}
	clk.Advance(10 * time.Second)
	if !b.allow() {
		t.Fatal("breaker did not go half-open after the second cooldown")
	}
	b.onSuccess()
	if !b.allow() || !b.allow() {
		t.Fatal("breaker did not close after a successful probe")
	}
	if open, _ := b.snapshot(); open {
		t.Fatal("snapshot reports open after recovery")
	}
}

// TestDegradeUnderOverload demotes a queued job to the sequential engine
// when the queue depth at dequeue reaches DegradeDepth, deterministically:
// the worker is blocked while two jobs queue behind it, so the first
// dequeued job sees depth 1 (demoted) and the second sees depth 0 (not).
func TestDegradeUnderOverload(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: -1, DegradeDepth: 1})
	svc.testHookJobRunning = func(*job) {
		once.Do(func() { close(started) })
		<-release
	}
	defer svc.Close()

	g1, g2, g3 := graph.Path(6), graph.Cycle(6), graph.Star(6)
	type outcome struct {
		res *Result
		err error
	}
	out := make([]chan outcome, 3)
	submit := func(i int, g *graph.Graph, e gcacc.Engine) {
		out[i] = make(chan outcome, 1)
		go func() {
			res, err := svc.Submit(context.Background(), Request{Graph: g, Engine: e})
			out[i] <- outcome{res, err}
		}()
	}
	// Job 0 is sequential — exempt from demotion — because the blocking
	// test hook runs before the depth check, so job 0 would otherwise see
	// the depth that built up while it was held. Jobs 1 and 2 enter the
	// queue one at a time so their FIFO order is fixed.
	submit(0, g1, gcacc.EngineSequential)
	<-started // worker occupied by job 0, queue empty
	submit(1, g2, gcacc.EngineGCA)
	waitFor(t, "first job to queue", func() bool { return svc.Stats().QueueDepth == 1 })
	submit(2, g3, gcacc.EngineGCA)
	waitFor(t, "second job to queue", func() bool { return svc.Stats().QueueDepth == 2 })
	close(release)

	graphs := []*graph.Graph{g1, g2, g3}
	results := make([]*Result, 3)
	for i := range out {
		o := <-out[i]
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
		results[i] = o.res
		want := graph.ConnectedComponentsUnionFind(graphs[i])
		for v, l := range o.res.Labels {
			if l != want[v] {
				t.Fatalf("request %d: label[%d] = %d, want %d", i, v, l, want[v])
			}
		}
	}
	if results[0].Degraded {
		t.Error("job 0 ran with an empty queue and should not degrade")
	}
	if !results[1].Degraded || results[1].Engine != "sequential" {
		t.Errorf("job 1 dequeued at depth 1: degraded=%v engine=%q, want sequential demotion",
			results[1].Degraded, results[1].Engine)
	}
	if results[2].Degraded {
		t.Error("job 2 dequeued at depth 0 and should not degrade")
	}
	if st := svc.Stats(); st.DegradedOverload != 1 {
		t.Errorf("degraded_overload = %d, want 1", st.DegradedOverload)
	}
}

// TestEnginePanicContained proves a panic inside a job is contained to
// ErrEnginePanic: the worker goroutine survives and serves the next
// request.
func TestEnginePanicContained(t *testing.T) {
	first := true
	svc := New(Config{Workers: 1, CacheEntries: -1})
	svc.testHookJobRunning = func(*job) {
		if first {
			first = false
			panic("boom")
		}
	}
	defer svc.Close()

	g := graph.Path(5)
	_, err := svc.Submit(context.Background(), Request{Graph: g, Engine: gcacc.EngineSequential})
	if !errors.Is(err, ErrEnginePanic) {
		t.Fatalf("err = %v, want ErrEnginePanic", err)
	}
	res, err := svc.Submit(context.Background(), Request{Graph: g, Engine: gcacc.EngineSequential})
	if err != nil {
		t.Fatalf("request after panic: %v", err)
	}
	if len(res.Labels) != 5 {
		t.Fatalf("labels = %v", res.Labels)
	}
	if st := svc.Stats(); st.EnginePanics != 1 || st.Failed != 1 || st.Completed != 1 {
		t.Errorf("panics=%d failed=%d completed=%d, want 1/1/1",
			st.EnginePanics, st.Failed, st.Completed)
	}
}

// TestZeroBudgetDeadline checks a request whose context is already done
// is rejected at admission: it never occupies a queue slot and never
// reaches a simulator.
func TestZeroBudgetDeadline(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := svc.Submit(ctx, Request{Graph: graph.Path(4), Engine: gcacc.EngineGCA})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	st := svc.Stats()
	if st.RejectedExpired != 1 {
		t.Errorf("rejected_expired = %d, want 1", st.RejectedExpired)
	}
	if st.Accepted != 0 || st.Completed != 0 || st.Generations != 0 {
		t.Errorf("accepted=%d completed=%d generations=%d, want 0/0/0 — nothing may run",
			st.Accepted, st.Completed, st.Generations)
	}
}

// TestMaxTimeoutClamp checks MaxTimeout bounds the deadline budget both
// for requests without a deadline and for requests whose own deadline is
// beyond the cap.
func TestMaxTimeoutClamp(t *testing.T) {
	svc := New(Config{Workers: 1, CacheEntries: -1, MaxTimeout: 20 * time.Millisecond})
	svc.testHookJobRunning = func(*job) { time.Sleep(100 * time.Millisecond) }
	defer svc.Close()

	// No client deadline: the cap still applies.
	_, err := svc.Submit(context.Background(), Request{Graph: graph.Path(4), Engine: gcacc.EngineGCA})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("no-deadline request: err = %v, want DeadlineExceeded from the clamp", err)
	}

	// A client deadline far beyond the cap is clamped too.
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	start := time.Now()
	_, err = svc.Submit(ctx, Request{Graph: graph.Path(4), Engine: gcacc.EngineGCA})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("long-deadline request: err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("clamped request took %v", elapsed)
	}
	if st := svc.Stats(); st.Canceled != 2 {
		t.Errorf("canceled = %d, want 2", st.Canceled)
	}
}

// TestPerRequestFaultOverride checks Request.Fault takes precedence over
// the service-level injector for that request only.
func TestPerRequestFaultOverride(t *testing.T) {
	reqInj := fault.New(fault.Config{Seed: 9, StepErrorP: 1})
	svc := New(Config{Workers: 1, CacheEntries: -1})
	defer svc.Close()

	g := graph.Path(4)
	// Clean request on a clean service succeeds.
	if _, err := svc.Submit(context.Background(), Request{Graph: g, Engine: gcacc.EngineGCA}); err != nil {
		t.Fatalf("clean request: %v", err)
	}
	// The override injects only into its own request.
	_, err := svc.Submit(context.Background(), Request{Graph: g, Engine: gcacc.EngineGCA, Fault: reqInj})
	if !fault.IsTransient(err) {
		t.Fatalf("injected request: err = %v, want transient", err)
	}
	if c := reqInj.Counters(); c.StepErrors != 1 {
		t.Errorf("request injector counters = %+v, want 1 step error", c)
	}
	// And the service is clean again afterwards.
	if _, err := svc.Submit(context.Background(), Request{Graph: g, Engine: gcacc.EngineGCA}); err != nil {
		t.Fatalf("clean request after override: %v", err)
	}
}

// TestSequentialNeverInjected pins the safety-net property: the
// sequential engine succeeds under an always-failing injector, because
// fault schedules are never threaded into it.
func TestSequentialNeverInjected(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 1, StepErrorP: 1, StallP: 1, Stall: time.Hour})
	svc := New(Config{Workers: 1, CacheEntries: -1, Fault: inj})
	defer svc.Close()

	g := graph.Cycle(8)
	res, err := svc.Submit(context.Background(), Request{Graph: g, Engine: gcacc.EngineSequential})
	if err != nil {
		t.Fatalf("sequential under p=1 faults: %v", err)
	}
	want := graph.ConnectedComponentsUnionFind(g)
	for v, l := range res.Labels {
		if l != want[v] {
			t.Fatalf("label[%d] = %d, want %d", v, l, want[v])
		}
	}
	if c := inj.Counters(); c.StepErrors != 0 || c.WorkerStalls != 0 {
		t.Errorf("injector counters = %+v, want zero — sequential must not be injected", c)
	}
}
