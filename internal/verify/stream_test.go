package verify

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gcacc"
	"gcacc/internal/fault"
	"gcacc/internal/sparse"
	"gcacc/internal/stream"
)

// TestRunStreamClean runs the stream conformance harness at a small size
// with no faults: every family must replay with zero divergence between
// the incremental labels, the periodic full recomputes (log-diameter and
// GCA), and the union-find oracle.
func TestRunStreamClean(t *testing.T) {
	rep, err := RunStream(StreamOptions{N: 32, Seed: 3})
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	if !rep.OK() {
		for _, f := range rep.Failures {
			t.Errorf("%s/%s [%s]: %s", f.Case, f.Engine, f.Check, f.Detail)
		}
		t.Fatalf("%d stream conformance failures", len(rep.Failures))
	}
	if len(rep.Families) < 8 {
		t.Fatalf("corpus has %d families, want >= 8: %v", len(rep.Families), rep.Families)
	}
	if rep.FaultSpec != "" {
		t.Fatalf("clean run reports fault spec %q", rep.FaultSpec)
	}
	if len(rep.Engines) != 3 {
		t.Fatalf("want 3 replica summaries, got %d", len(rep.Engines))
	}
	for _, s := range rep.Engines {
		if s.Path != "stream" {
			t.Errorf("summary %s has path %q, want stream", s.Engine, s.Path)
		}
		if s.Cases == 0 || s.Checks == 0 {
			t.Errorf("summary %s checked nothing: %+v", s.Engine, s)
		}
		if s.Errors != 0 {
			t.Errorf("summary %s tolerated %d errors on a clean run", s.Engine, s.Errors)
		}
	}
	requireCleanDeletes(t, rep)
}

// requireCleanDeletes: some deletion batches of the corpus miss the
// spanning forest entirely, and the incremental replica must answer
// those without going dirty.
func requireCleanDeletes(t *testing.T, rep *Report) {
	t.Helper()
	if inc := rep.Engines[0]; inc.CleanDeletes == 0 {
		t.Errorf("%s answered no applied deletion batch with dirty=false", inc.Engine)
	}
}

// TestRunStreamFaulty replays the same traces with mid-batch aborts and
// failing/stalling recompute steps injected. Faults may surface as
// counted transient errors, never as divergence.
func TestRunStreamFaulty(t *testing.T) {
	rep, err := RunStream(StreamOptions{
		N:         24,
		Seed:      5,
		FaultSpec: "seed=5,batcherr=0.2,steperr=0.05,stall=0.05:100us",
	})
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	if !rep.OK() {
		for _, f := range rep.Failures {
			t.Errorf("%s/%s [%s]: %s", f.Case, f.Engine, f.Check, f.Detail)
		}
		t.Fatalf("%d divergences under fault injection", len(rep.Failures))
	}
	if rep.FaultSpec == "" {
		t.Fatal("faulty run does not record its fault spec")
	}
	errs := 0
	for _, s := range rep.Engines {
		errs += s.Errors
	}
	if errs == 0 {
		t.Fatal("no injected fault surfaced — the faulty run proved nothing")
	}
	requireCleanDeletes(t, rep)
	if rep.OK() {
		t.Logf("faulty stream run: %d checks, %d tolerated transient errors, zero divergence", rep.Checks, errs)
	}

	if _, err := RunStream(StreamOptions{N: 8, FaultSpec: "steperr=oops"}); err == nil {
		t.Fatal("bad fault spec not rejected")
	}
}

// TestStreamSoak is the stream arm of the chaos tier: concurrent clients
// drive named graphs through a shared Registry while the injector aborts
// batches mid-admission and fails or stalls recompute steps. The
// invariant is the streaming analogue of TestChaosSoak's: every
// successful response — mutation or query — must be exactly what a
// from-scratch union-find over that graph's accepted batches would say;
// faults surface as transient errors, never as a wrong epoch or label.
//
// Tuning: GCACC_STREAM_SOAK_OPS (total ops, default 400),
// GCACC_STREAM_SOAK_N (vertices per graph, default 48),
// GCACC_CHAOS_SEED (fault + workload seed, default 7).
func TestStreamSoak(t *testing.T) {
	ops := chaosEnvInt("GCACC_STREAM_SOAK_OPS", 400)
	n := chaosEnvInt("GCACC_STREAM_SOAK_N", 48)
	seed := int64(chaosEnvInt("GCACC_CHAOS_SEED", 7))
	t.Logf("stream soak: ops=%d n=%d seed=%d", ops, n, seed)

	inj := fault.New(fault.Config{
		Seed:        seed,
		BatchErrorP: 0.10,
		StepErrorP:  0.05,
		StepDelayP:  0.05,
		StepDelay:   100 * time.Microsecond,
		StallP:      0.03,
		Stall:       100 * time.Microsecond,
	})
	reg := stream.NewRegistry(stream.RegistryConfig{
		MaxGraphs:       16,
		MaxVertices:     n,
		MaxBatch:        64,
		Engine:          gcacc.EngineLiuTarjan,
		RecomputePeriod: 3,
		Fault:           inj,
	})

	const clients = 4
	var (
		mu         sync.Mutex
		okMuts     int
		okQueries  int
		aborted    int
		firstWrong error
	)
	wrong := func(err error) {
		mu.Lock()
		if firstWrong == nil {
			firstWrong = err
		}
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			name := fmt.Sprintf("soak-%d", c)
			if _, err := reg.Create(name, n); err != nil {
				wrong(fmt.Errorf("create %s: %w", name, err))
				return
			}
			rng := rand.New(rand.NewSource(seed ^ int64(0x517*(c+1))))
			live := map[sparse.Edge]struct{}{}
			accepted := uint64(0)
			edge := func() sparse.Edge {
				u := int32(rng.Intn(n))
				v := int32(rng.Intn(n))
				if u == v {
					v = (v + 1) % int32(n)
				}
				if u > v {
					u, v = v, u
				}
				return sparse.Edge{U: u, V: v}
			}
			for i := 0; i < ops/clients; i++ {
				r := rng.Intn(10)
				switch {
				case r < 6: // append
					batch := make([]sparse.Edge, 1+rng.Intn(8))
					for j := range batch {
						batch[j] = edge()
					}
					m, err := reg.Append(ctx, name, batch, int64(accepted))
					if err != nil {
						if !fault.IsTransient(err) {
							wrong(fmt.Errorf("client %d append: non-transient %w", c, err))
							return
						}
						mu.Lock()
						aborted++
						mu.Unlock()
						continue
					}
					accepted++
					if m.Epoch != accepted {
						wrong(fmt.Errorf("client %d: epoch %d after %d accepted batches", c, m.Epoch, accepted))
						return
					}
					for _, e := range batch {
						live[e] = struct{}{}
					}
					mu.Lock()
					okMuts++
					mu.Unlock()
				case r < 8: // delete (mix of live and absent edges)
					batch := []sparse.Edge{edge()}
					m, err := reg.Delete(ctx, name, batch, int64(accepted))
					if err != nil {
						if !fault.IsTransient(err) {
							wrong(fmt.Errorf("client %d delete: non-transient %w", c, err))
							return
						}
						mu.Lock()
						aborted++
						mu.Unlock()
						continue
					}
					accepted++
					if m.Epoch != accepted {
						wrong(fmt.Errorf("client %d: epoch %d after %d accepted batches", c, m.Epoch, accepted))
						return
					}
					for _, e := range batch {
						delete(live, e)
					}
					mu.Lock()
					okMuts++
					mu.Unlock()
				default: // query
					snap, err := reg.Components(ctx, name, true)
					if err != nil {
						if !fault.IsTransient(err) {
							wrong(fmt.Errorf("client %d query: non-transient %w", c, err))
							return
						}
						continue
					}
					if snap.Epoch != accepted {
						wrong(fmt.Errorf("client %d: snapshot epoch %d, want %d", c, snap.Epoch, accepted))
						return
					}
					want := oracleLabels(n, live)
					if !labelsEqual(snap.Labels, want) {
						wrong(fmt.Errorf("client %d: SILENTLY WRONG labelling (seed %d): %s",
							c, seed, diffLabels(snap.Labels, want)))
						return
					}
					mu.Lock()
					okQueries++
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()

	if firstWrong != nil {
		t.Fatal(firstWrong)
	}
	if okQueries == 0 || okMuts == 0 {
		t.Fatalf("soak checked nothing: %d ok mutations, %d ok queries", okMuts, okQueries)
	}

	st := reg.Stats()
	fc := inj.Counters()
	t.Logf("soak outcome: %d ok mutations, %d ok queries, %d aborted batches; recomputes=%d; injected: %+v",
		okMuts, okQueries, aborted, st.Recomputes, fc)

	if fc.BatchAborts == 0 {
		t.Error("no batch was ever aborted mid-admission")
	}
	if fc.StepErrors == 0 && fc.WorkerStalls == 0 && fc.StepDelays == 0 {
		t.Errorf("no recompute step was ever disrupted: %+v", fc)
	}
	if st.Recomputes == 0 {
		t.Error("no full recompute ever ran — deletion tolerance was never exercised")
	}
	if st.Faults == nil || !st.Faults.Any() {
		t.Error("registry stats do not surface the injector counters")
	}
}
