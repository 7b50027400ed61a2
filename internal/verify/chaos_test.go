package verify

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"gcacc"
	"gcacc/internal/fault"
	"gcacc/internal/graph"
	"gcacc/internal/service"
	"gcacc/internal/sparse"
)

// chaosEnvInt reads a positive integer tuning knob from the environment.
func chaosEnvInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// TestChaosSoak is the chaos conformance tier's headline test: a seeded
// soak that drives the in-process service over the conformance corpus
// while a deterministic fault schedule injects step errors, step latency
// and worker stalls, with the breaker and its sequential fallback
// enabled. The invariant under test: every successful response carries a
// labelling identical to union-find ground truth — faults may surface as
// errors or documented fallbacks, never as a silently wrong answer. The
// end-of-soak assertions require the resilience machinery to have
// actually fired (breaker trips, fallbacks, injections), so the soak
// cannot pass vacuously.
//
// Tuning: GCACC_CHAOS_REQUESTS (total requests, default 150),
// GCACC_CHAOS_N (corpus size budget, default 12), GCACC_CHAOS_SEED
// (fault + workload seed, default 7). A failing run reproduces from its
// printed seed.
func TestChaosSoak(t *testing.T) {
	requests := chaosEnvInt("GCACC_CHAOS_REQUESTS", 150)
	corpusN := chaosEnvInt("GCACC_CHAOS_N", 12)
	seed := int64(chaosEnvInt("GCACC_CHAOS_SEED", 7))
	t.Logf("chaos soak: requests=%d n=%d seed=%d", requests, corpusN, seed)

	cfg := fault.Config{
		Seed:       seed,
		StepErrorP: 0.01,
		StepDelayP: 0.05,
		StepDelay:  100 * time.Microsecond,
		StallP:     0.05,
		Stall:      100 * time.Microsecond,
	}
	inj := fault.New(cfg)
	svc := service.New(service.Config{
		Workers:          3,
		QueueDepth:       16,
		CacheEntries:     32,
		DefaultTimeout:   2 * time.Second,
		MaxVertices:      2*corpusN + 8,
		Fault:            inj,
		BreakerThreshold: 3,
		BreakerCooldown:  2 * time.Millisecond,
	})
	defer svc.Close()

	cases := Corpus(corpusN, seed)
	inputs := sparseInputs(cases)
	truths := make([][]int, len(cases))
	for i, c := range cases {
		truths[i] = graph.ConnectedComponentsUnionFind(c.Graph)
	}

	// Engine mix: mostly GCA (the paper's engine, and the one the faults
	// bite hardest), some n-cell, a sliver of the others.
	engineMix := []gcacc.Engine{
		gcacc.EngineGCA, gcacc.EngineGCA, gcacc.EngineGCA, gcacc.EngineGCA,
		gcacc.EngineNCell, gcacc.EngineNCell,
		gcacc.EnginePRAM, gcacc.EngineSequential,
	}

	const clients = 8
	var (
		mu         sync.Mutex
		successes  int
		errCount   int
		degraded   int
		firstWrong error
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed ^ int64(0x9e37*(c+1))))
			for i := 0; i < requests/clients; i++ {
				ci := rng.Intn(len(cases))
				req := service.Request{
					Sparse:  inputs[ci],
					Engine:  engineMix[rng.Intn(len(engineMix))],
					NoCache: rng.Intn(3) == 0,
				}
				ctx := context.Background()
				var cancel context.CancelFunc
				if rng.Intn(8) == 0 {
					// A sliver of brutally tight deadlines exercises the
					// cancellation paths mid-run and mid-injected-delay.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(100+rng.Intn(900))*time.Microsecond)
				}
				res, err := svc.Submit(ctx, req)
				if cancel != nil {
					cancel()
				}
				mu.Lock()
				if err != nil {
					// Errors are a documented legitimate outcome under
					// faults. Silent wrongness is not — checked below.
					errCount++
				} else {
					successes++
					if res.Degraded {
						degraded++
					}
					if !labelsEqual(res.Labels, truths[ci]) && firstWrong == nil {
						firstWrong = fmt.Errorf("case %s engine %s (degraded=%v): %s",
							cases[ci].Name, res.Engine, res.Degraded,
							diffLabels(res.Labels, truths[ci]))
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	if firstWrong != nil {
		t.Fatalf("SILENTLY WRONG ANSWER under faults (seed %d): %v", seed, firstWrong)
	}
	if successes == 0 {
		t.Fatalf("no request succeeded (%d errors) — the soak checked nothing", errCount)
	}

	st := svc.Stats()
	fc := inj.Counters()
	t.Logf("soak outcome: %d ok (%d degraded), %d errors; trips=%d fallback=%d; injected: %+v",
		successes, degraded, errCount, st.BreakerTrips, st.FallbackBreaker, fc)

	// The machinery must have actually fired — a soak where nothing was
	// injected or no breaker tripped proves nothing.
	if fc.StepErrors == 0 || fc.StepDelays == 0 || fc.WorkerStalls == 0 {
		t.Errorf("injector fired nothing on some site: %+v", fc)
	}
	if st.BreakerTrips == 0 {
		t.Error("no breaker ever tripped")
	}
	if st.FallbackBreaker == 0 && degraded == 0 {
		t.Error("no request was ever served by the documented fallback")
	}
	if st.Faults == nil || !st.Faults.Any() {
		t.Error("stats do not surface the injector counters")
	}
}

// sparseInputs converts the corpus to the serving tier's request
// representation once, so concurrent clients share read-only graphs.
func sparseInputs(cases []Case) []*sparse.Graph {
	out := make([]*sparse.Graph, len(cases))
	for i, c := range cases {
		out[i] = sparse.FromDense(c.Graph)
	}
	return out
}
