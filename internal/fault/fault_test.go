package fault

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestUniform01Deterministic(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		for n := uint64(0); n < 100; n++ {
			a, b := uniform01(seed, n), uniform01(seed, n)
			if a != b {
				t.Fatalf("uniform01(%d,%d) not deterministic: %v vs %v", seed, n, a, b)
			}
			if a < 0 || a >= 1 {
				t.Fatalf("uniform01(%d,%d) = %v outside [0,1)", seed, n, a)
			}
		}
	}
}

func TestUniform01RoughlyUniform(t *testing.T) {
	// Not a statistical test — just a sanity bound that the draws are
	// spread out rather than collapsed onto a few values.
	const draws = 10000
	var below int
	for n := uint64(0); n < draws; n++ {
		if uniform01(42, n) < 0.5 {
			below++
		}
	}
	if below < draws*4/10 || below > draws*6/10 {
		t.Fatalf("%d/%d draws below 0.5 — far from uniform", below, draws)
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"seed=7",
		"seed=7,steperr=0.01",
		"seed=3,steperr=0.25,stepdelay=0.05:200µs",
		"seed=-1,stall=0.02:1ms",
		"seed=0,steperr=1,stepdelay=1:1s,stall=1:1h0m0s",
		"seed=11,batcherr=0.25",
		"seed=2,steperr=0.1,batcherr=1",
		"seed=4,peererr=0.5",
		"seed=6,peerstall=0.1:500µs",
		"seed=8,steperr=0.02,peererr=0.1,peerstall=0.05:1ms",
	} {
		c, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		c2, err := ParseSpec(c.String())
		if err != nil {
			t.Fatalf("ParseSpec(String(%q) = %q): %v", spec, c.String(), err)
		}
		if c != c2 {
			t.Fatalf("round trip of %q: %+v != %+v", spec, c, c2)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus",               // not key=value
		"seed=x",              // bad int
		"steperr=1.5",         // probability out of range
		"steperr=-0.1",        // negative probability
		"stepdelay=0.5",       // missing duration
		"stepdelay=0.5:nope",  // bad duration
		"stall=0.5:-1ms",      // negative duration
		"batcherr=2",          // probability out of range
		"batcherr=oops",       // bad float
		"peererr=7",           // probability out of range
		"peerstall=0.5",       // missing duration
		"peerstall=0.5:-1s",   // negative duration
		"unknown=1",           // unknown key
		"seed=1,,steperr=zzz", // bad value after empty term
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error", spec)
		}
	}
	// Empty and whitespace specs are the zero config, not an error.
	for _, spec := range []string{"", "  "} {
		c, err := ParseSpec(spec)
		if err != nil || c.Enabled() {
			t.Errorf("ParseSpec(%q) = %+v, %v; want zero config, nil", spec, c, err)
		}
	}
}

func TestConfigEnabled(t *testing.T) {
	cases := []struct {
		c    Config
		want bool
	}{
		{Config{}, false},
		{Config{Seed: 9}, false},
		{Config{StepErrorP: 0.1}, true},
		{Config{StepDelayP: 0.1}, false}, // probability without duration injects nothing
		{Config{StepDelayP: 0.1, StepDelay: time.Millisecond}, true},
		{Config{StallP: 0.1}, false},
		{Config{StallP: 0.1, Stall: time.Millisecond}, true},
		{Config{BatchErrorP: 0.1}, true},
		{Config{PeerErrorP: 0.1}, true},
		{Config{PeerStallP: 0.1}, false}, // probability without duration injects nothing
		{Config{PeerStallP: 0.1, PeerStall: time.Millisecond}, true},
	}
	for _, tc := range cases {
		if got := tc.c.Enabled(); got != tc.want {
			t.Errorf("Enabled(%+v) = %v, want %v", tc.c, got, tc.want)
		}
	}
}

// TestRunScheduleDeterministic replays the same run ordinal twice and
// checks the decision stream is identical — the reproducibility claim of
// the chaos tier.
func TestRunScheduleDeterministic(t *testing.T) {
	ctx := context.Background()
	schedule := func() []bool {
		in := New(Config{Seed: 11, StepErrorP: 0.3})
		r := in.NewRun()
		var out []bool
		for step := 0; step < 200; step++ {
			out = append(out, r.BeforeStep(ctx, step) != nil)
		}
		return out
	}
	a, b := schedule(), schedule()
	var fired int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d differs between identical runs", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("p=0.3 over 200 steps injected nothing")
	}
	if fired == len(a) {
		t.Fatal("p=0.3 injected every step")
	}
}

// TestRunsDiffer checks distinct run ordinals draw distinct schedules —
// retries must not deterministically hit the same injected failure.
func TestRunsDiffer(t *testing.T) {
	in := New(Config{Seed: 11, StepErrorP: 0.3})
	ctx := context.Background()
	stream := func(r *Run) (out []bool) {
		for step := 0; step < 200; step++ {
			out = append(out, r.BeforeStep(ctx, step) != nil)
		}
		return
	}
	a, b := stream(in.NewRun()), stream(in.NewRun())
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two distinct runs drew identical 200-step schedules")
	}
}

func TestInjectedErrorIsTransient(t *testing.T) {
	in := New(Config{Seed: 1, StepErrorP: 1})
	err := in.NewRun().BeforeStep(context.Background(), 4)
	if err == nil {
		t.Fatal("p=1 step did not fail")
	}
	if !IsTransient(err) {
		t.Fatalf("injected error %v is not transient", err)
	}
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("injected error %v does not wrap ErrTransient", err)
	}
}

func TestCounters(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	in := NewWithClock(Config{Seed: 5, StepErrorP: 1, StallP: 1, Stall: time.Millisecond}, clk)
	r := in.NewRun()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled ctx makes the fake-clock stall return immediately
	r.WorkerStall(ctx, 0)
	if err := r.BeforeStep(ctx, 0); err == nil {
		t.Fatal("expected injected error")
	}
	c := in.Counters()
	if c.Runs != 1 || c.StepErrors != 1 || c.WorkerStalls != 1 {
		t.Fatalf("counters = %+v, want runs/errors/stalls = 1", c)
	}
	if !c.Any() {
		t.Fatal("Counters.Any() = false after injections")
	}
	if (Counters{Runs: 3}).Any() {
		t.Fatal("Counters.Any() counts runs, want injections only")
	}
}

// TestStepDelayInterruptible checks an injected delay is cut short by
// context cancellation and surfaces the context's error.
func TestStepDelayInterruptible(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	in := NewWithClock(Config{Seed: 2, StepDelayP: 1, StepDelay: time.Hour}, clk)
	r := in.NewRun()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- r.BeforeStep(ctx, 0) }()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("interrupted delay returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("BeforeStep did not return after cancellation")
	}
}

func TestFakeClock(t *testing.T) {
	clk := NewFakeClock(time.Unix(100, 0))
	if got := clk.Now(); !got.Equal(time.Unix(100, 0)) {
		t.Fatalf("Now = %v", got)
	}

	done := make(chan error, 1)
	go func() { done <- clk.Sleep(context.Background(), 10*time.Second) }()
	// Wait for the sleeper to register before advancing, else its
	// deadline would be measured from the already-advanced clock.
	for i := 0; ; i++ {
		clk.mu.Lock()
		n := len(clk.waiters)
		clk.mu.Unlock()
		if n > 0 {
			break
		}
		if i > 5000 {
			t.Fatal("sleeper never registered")
		}
		time.Sleep(time.Millisecond)
	}
	// Partial advance must not wake the sleeper.
	clk.Advance(5 * time.Second)
	select {
	case <-done:
		t.Fatal("Sleep woke before its deadline")
	case <-time.After(10 * time.Millisecond):
	}
	clk.Advance(5 * time.Second)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Sleep returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Sleep did not wake after full advance")
	}
	if got := clk.Now(); !got.Equal(time.Unix(110, 0)) {
		t.Fatalf("Now after advances = %v, want +10s", got)
	}

	// Zero and negative sleeps return immediately.
	if err := clk.Sleep(context.Background(), 0); err != nil {
		t.Fatalf("Sleep(0) = %v", err)
	}
}

func TestRealClockSleep(t *testing.T) {
	clk := RealClock()
	if err := clk.Sleep(context.Background(), time.Microsecond); err != nil {
		t.Fatalf("Sleep = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := clk.Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Sleep = %v, want context.Canceled", err)
	}
}

// TestNilInjectorHooks checks the nil-injector path the facade takes
// when no fault is configured: zero hooks, nothing to pay for.
func TestNilInjectorHooks(t *testing.T) {
	var in *Injector
	h := in.GCAHooks(context.Background())
	if h.BeforeStep != nil || h.WorkerStall != nil {
		t.Fatal("nil injector produced non-zero hooks")
	}
	h = New(Config{Seed: 1}).GCAHooks(context.Background())
	if h.BeforeStep != nil || h.WorkerStall != nil {
		t.Fatal("disabled injector produced non-zero hooks")
	}
	h = New(Config{StepErrorP: 0.5}).GCAHooks(context.Background())
	if h.BeforeStep == nil || h.WorkerStall == nil {
		t.Fatal("enabled injector produced zero hooks")
	}
}

// TestBeforePeerCall checks the cluster-tier peer-call site: the stall
// fires before the error decision, both are counted, the error is
// transient, the schedule is deterministic per (seed, call ordinal), and
// the site is inert when unconfigured.
func TestBeforePeerCall(t *testing.T) {
	ctx := context.Background()
	off := New(Config{Seed: 5, StepErrorP: 1}) // step site must not leak into the peer site
	for i := 0; i < 100; i++ {
		if err := off.BeforePeerCall(ctx); err != nil {
			t.Fatalf("BeforePeerCall with PeerErrorP=0 injected: %v", err)
		}
	}

	record := func() []bool {
		clk := NewFakeClock(time.Unix(0, 0))
		cctx, cancel := context.WithCancel(ctx)
		cancel() // cancelled ctx makes fake-clock stalls return immediately
		in := NewWithClock(Config{Seed: 9, PeerErrorP: 0.5, PeerStallP: 0.5, PeerStall: time.Millisecond}, clk)
		got := make([]bool, 200)
		for i := range got {
			err := in.BeforePeerCall(cctx)
			if err != nil && !IsTransient(err) {
				t.Fatalf("injected peer failure not transient: %v", err)
			}
			got[i] = err != nil
		}
		c := in.Counters()
		if c.PeerErrors == 0 || c.PeerStalls == 0 || !c.Any() {
			t.Fatalf("peer site fired nothing at P=0.5: %+v", c)
		}
		return got
	}
	a, b := record(), record()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("peer-call schedule not deterministic at ordinal %d", i)
		}
	}
}

// TestBeforeBatch checks the stream batch-abort site: deterministic per
// (seed, batch ordinal), transient, counted, and inert at P=0.
func TestBeforeBatch(t *testing.T) {
	off := New(Config{Seed: 5})
	for i := 0; i < 100; i++ {
		if err := off.BeforeBatch(); err != nil {
			t.Fatalf("BeforeBatch with BatchErrorP=0 injected: %v", err)
		}
	}

	record := func() []bool {
		in := New(Config{Seed: 5, BatchErrorP: 0.5})
		got := make([]bool, 200)
		for i := range got {
			err := in.BeforeBatch()
			if err != nil && !IsTransient(err) {
				t.Fatalf("injected batch abort not transient: %v", err)
			}
			got[i] = err != nil
		}
		c := in.Counters()
		if c.BatchAborts == 0 || !c.Any() {
			t.Fatalf("no batch aborts counted at P=0.5: %+v", c)
		}
		return got
	}
	a, b := record(), record()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("batch-abort schedule not deterministic at ordinal %d", i)
		}
	}
}
