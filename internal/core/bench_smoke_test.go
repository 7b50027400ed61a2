package core_test

// Environment-gated performance smoke gates, run by `make bench-smoke`
// (and its CI job) with GCACC_BENCH_SMOKE=1. Unlike the measurement
// benchmarks these are pass/fail: they catch the regressions the
// active-region scheduling and chained-generation work exist to prevent —
// the kernel fast path falling behind the generic per-cell path, a
// default run no longer chaining its generations, and worker fan-out making
// the engine slower instead of flat-or-faster — plus a generous
// wall-clock ceiling on the n=1024 point so a superlinear blow-up fails
// the build rather than merely slowing it.
//
// Margins are deliberately loose: CI runners and the reference container
// are small (often a single core, where extra workers can only add
// coordination overhead), so the gates assert "not meaningfully slower",
// not a speed-up. See EXPERIMENTS.md "Engine scaling".

import (
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"

	"gcacc/internal/core"
	"gcacc/internal/gca"
	"gcacc/internal/graph"
)

// benchSmokeEnabled gates the wall-clock assertions behind an explicit
// opt-in: timing gates are meaningless under -race or on a loaded
// machine, so plain `go test ./...` must never run them.
func benchSmokeEnabled(t *testing.T) {
	t.Helper()
	if os.Getenv("GCACC_BENCH_SMOKE") == "" {
		t.Skip("set GCACC_BENCH_SMOKE=1 to run wall-clock smoke gates (make bench-smoke)")
	}
}

// medianRunTime runs fn reps times and returns the median duration —
// cheap insulation against one-off scheduler noise.
func medianRunTime(t *testing.T, reps int, fn func() error) time.Duration {
	t.Helper()
	times := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		times = append(times, time.Since(start))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2]
}

// stepSchedule drives one machine through the full Figure-2 schedule.
func stepSchedule(n int, f *gca.Field, rule gca.Rule) error {
	m := gca.NewMachine(f, rule, gca.WithWorkers(1))
	for _, ctx := range core.Schedule(n, 0) {
		if _, err := m.Step(ctx); err != nil {
			return err
		}
	}
	return nil
}

// TestBenchSmokeFastPathBeatsGeneric fails the build if the plan-routed
// kernel path stops being faster than the generic per-cell reference
// path on the same workload — the entire point of compiling kernels.
func TestBenchSmokeFastPathBeatsGeneric(t *testing.T) {
	benchSmokeEnabled(t)
	const n = 256
	g := graph.Gnp(n, 0.5, rand.New(rand.NewSource(2007)))
	fast := medianRunTime(t, 3, func() error {
		return stepSchedule(n, core.NewProgramFieldForTest(g), core.NewProgramRule(n))
	})
	generic := medianRunTime(t, 3, func() error {
		return stepSchedule(n, core.NewProgramFieldForTest(g), genericOnly{core.NewProgramRule(n)})
	})
	t.Logf("n=%d: fast path %v, generic path %v", n, fast, generic)
	if fast >= generic {
		t.Fatalf("kernel fast path (%v) is not faster than the generic per-cell path (%v)", fast, generic)
	}
}

// TestBenchSmokeFusedBeatsStepped fails the build if a default run stops
// taking the chained path: core.Run with nothing observing must
// beat the same run with a no-op observer, which steps every
// sub-generation. A default observer or hook that silently turned
// chaining off would make the two runs cost the same.
func TestBenchSmokeFusedBeatsStepped(t *testing.T) {
	benchSmokeEnabled(t)
	const n = 256
	g := graph.Gnp(n, 0.5, rand.New(rand.NewSource(2007)))
	noop := gca.ObserverFunc(func(*gca.Field, *gca.StepStats) {})
	run := func(opt core.Options) func() error {
		return func() error {
			_, err := core.Run(g, opt)
			return err
		}
	}
	fused := medianRunTime(t, 3, run(core.Options{Workers: 1}))
	stepped := medianRunTime(t, 3, run(core.Options{Workers: 1, Observer: noop}))
	t.Logf("n=%d: fused %v, stepped %v", n, fused, stepped)
	if fused >= stepped {
		t.Fatalf("default run (%v) is not faster than the sub-generation-stepped run (%v): the chained path is off", fused, stepped)
	}
}

// TestBenchSmokeWorkerScaling fails the build if asking for eight
// workers makes a full n=1024 run meaningfully slower than one worker.
// On multi-core runners the fan-out should win; on a single core the
// global pool's overhead must stay inside the margin.
func TestBenchSmokeWorkerScaling(t *testing.T) {
	benchSmokeEnabled(t)
	const n, margin = 1024, 1.25
	g := graph.Gnp(n, 0.5, rand.New(rand.NewSource(2007)))
	run := func(workers int) func() error {
		return func() error {
			_, err := core.Run(g, core.Options{Workers: workers})
			return err
		}
	}
	w1 := medianRunTime(t, 3, run(1))
	w8 := medianRunTime(t, 3, run(8))
	t.Logf("n=%d: workers=1 %v, workers=8 %v (margin %.2fx)", n, w1, w8, margin)
	if float64(w8) > float64(w1)*margin {
		t.Fatalf("workers=8 (%v) is more than %.2fx slower than workers=1 (%v); the pool must never cost a slowdown",
			w8, margin, w1)
	}
}

// TestBenchSmokeN1024Ceiling is the scale smoke point: one full n=1024
// program run must finish inside a deliberately generous ceiling, so a
// superlinear regression (a lost plan, a quadratic rescan) fails CI
// outright instead of quietly stretching the bench job.
func TestBenchSmokeN1024Ceiling(t *testing.T) {
	benchSmokeEnabled(t)
	const n = 1024
	const ceiling = 2 * time.Minute
	g := graph.Gnp(n, 0.5, rand.New(rand.NewSource(2007)))
	start := time.Now()
	res, err := core.ConnectedComponents(g)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	t.Logf("n=%d: %d generations in %v (ceiling %v)", n, res.Generations, elapsed, ceiling)
	if elapsed > ceiling {
		t.Fatalf("n=%d run took %v, over the %v ceiling", n, elapsed, ceiling)
	}
}
