package verify

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gcacc"
	"gcacc/internal/cluster"
	"gcacc/internal/fault"
	"gcacc/internal/graph"
	"gcacc/internal/service"
)

// TestClusterChaosSoak is the sharded tier's chaos gate: a seeded soak
// over a 3-replica in-process topology with faults injected at BOTH
// layers — engine step errors/delays inside every replica's service,
// and peer-call errors/stalls on the routing fabric — while concurrent
// clients spray requests across all entry nodes and a controller stops
// one replica mid-run and restarts it later.
//
// The invariant: every successful response carries a labelling
// identical to union-find ground truth, whatever replica it entered
// through and whatever faults it survived. Dead peers, injected
// peer-call failures and the stopped replica may surface as errors or
// as the documented fallback-to-local-compute — never as a silently
// wrong answer. End-of-soak assertions require the failure machinery to
// have actually fired (peer faults injected, fallbacks taken, the
// stopped replica both refused requests and came back), so the soak
// cannot pass vacuously.
//
// Tuning: GCACC_CLUSTER_REQUESTS (total requests, default 240),
// GCACC_CLUSTER_N (corpus size budget, default 12), GCACC_CLUSTER_SEED
// (fault + workload seed, default 7). A failing run reproduces from its
// printed seed. `make cluster-smoke` runs this under -race.
func TestClusterChaosSoak(t *testing.T) {
	requests := chaosEnvInt("GCACC_CLUSTER_REQUESTS", 240)
	corpusN := chaosEnvInt("GCACC_CLUSTER_N", 12)
	seed := int64(chaosEnvInt("GCACC_CLUSTER_SEED", 7))
	const replicas = 3
	t.Logf("cluster chaos soak: requests=%d n=%d seed=%d replicas=%d", requests, corpusN, seed, replicas)

	svcFaults := fault.New(fault.Config{
		Seed:       seed,
		StepErrorP: 0.01,
		StepDelayP: 0.05,
		StepDelay:  100 * time.Microsecond,
	})
	peerFaults := fault.New(fault.Config{
		Seed:       seed + 1,
		PeerErrorP: 0.10,
		PeerStallP: 0.05,
		PeerStall:  200 * time.Microsecond,
	})
	top, err := cluster.NewInProcessTopology(replicas, service.Config{
		Workers:          2,
		QueueDepth:       32,
		CacheEntries:     32,
		DefaultTimeout:   2 * time.Second,
		MaxVertices:      2*corpusN + 8,
		Fault:            svcFaults,
		BreakerThreshold: 3,
		BreakerCooldown:  2 * time.Millisecond,
	}, cluster.Config{
		Mode:       cluster.ModeProxy,
		PeerBudget: 50 * time.Millisecond,
		Fault:      peerFaults,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer top.Close()

	cases := Corpus(corpusN, seed)
	inputs := sparseInputs(cases)
	truths := make([][]int, len(cases))
	for i, c := range cases {
		truths[i] = graph.ConnectedComponentsUnionFind(c.Graph)
	}
	engineMix := []gcacc.Engine{
		gcacc.EngineGCA, gcacc.EngineGCA, gcacc.EngineGCA,
		gcacc.EngineNCell, gcacc.EnginePRAM, gcacc.EngineSequential,
	}

	// The controller stops replica 1 after a third of the soak and
	// restarts it after two thirds, keyed off the shared progress
	// counter so the outage always overlaps live traffic.
	var done atomic.Int64
	const victim = 1
	stopAt, startAt := int64(requests/3), int64(2*requests/3)
	ctrlStop := make(chan struct{})
	var ctrl sync.WaitGroup
	ctrl.Add(1)
	go func() {
		defer ctrl.Done()
		stopped := false
		for {
			select {
			case <-ctrlStop:
				return
			case <-time.After(100 * time.Microsecond):
			}
			n := done.Load()
			if !stopped && n >= stopAt {
				top.Nodes[victim].Stop()
				stopped = true
			}
			if stopped && n >= startAt {
				top.Nodes[victim].Start()
				return
			}
		}
	}()

	const clients = 8
	var (
		mu          sync.Mutex
		successes   int
		errCount    int
		downErrors  int
		afterRevive int
		firstWrong  error
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed ^ int64(0x9e37*(c+1))))
			for i := 0; i < requests/clients; i++ {
				ci := rng.Intn(len(cases))
				entry := top.Nodes[rng.Intn(replicas)]
				res, err := entry.Submit(context.Background(), service.Request{
					Sparse:  inputs[ci],
					Engine:  engineMix[rng.Intn(len(engineMix))],
					NoCache: rng.Intn(3) == 0,
				})
				done.Add(1)
				mu.Lock()
				if err != nil {
					errCount++
					if errors.Is(err, cluster.ErrNodeDown) {
						downErrors++
					}
				} else {
					successes++
					if res.Served == victim && done.Load() > startAt {
						afterRevive++
					}
					if !labelsEqual(res.Labels, truths[ci]) && firstWrong == nil {
						firstWrong = fmt.Errorf("case %s via node %d (owner=%d served=%d fallback=%v): %s",
							cases[ci].Name, entry.Self(), res.Owner, res.Served, res.FallbackLocal,
							diffLabels(res.Labels, truths[ci]))
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(ctrlStop)
	ctrl.Wait()
	top.Nodes[victim].Start() // in case the soak outran the controller

	if firstWrong != nil {
		t.Fatalf("SILENTLY WRONG ANSWER under cluster faults (seed %d): %v", seed, firstWrong)
	}
	if successes == 0 {
		t.Fatalf("no request succeeded (%d errors) — the soak checked nothing", errCount)
	}

	var agg cluster.Stats
	for _, s := range top.Stats() {
		agg.RoutedRemote += s.RoutedRemote
		agg.Proxied += s.Proxied
		agg.FallbackLocal += s.FallbackLocal
		agg.PeerErrors += s.PeerErrors
		agg.PeerServed += s.PeerServed
	}
	pc := peerFaults.Counters()
	t.Logf("soak outcome: %d ok, %d errors (%d node-down, %d served by revived replica); "+
		"routed=%d proxied=%d fallback=%d peer-errors=%d; injected: peer_errors=%d peer_stalls=%d",
		successes, errCount, downErrors, afterRevive,
		agg.RoutedRemote, agg.Proxied, agg.FallbackLocal, agg.PeerErrors, pc.PeerErrors, pc.PeerStalls)

	// The failure machinery must have actually fired.
	if pc.PeerErrors == 0 || pc.PeerStalls == 0 {
		t.Errorf("peer-fault injector fired nothing on some site: %+v", pc)
	}
	if agg.FallbackLocal == 0 {
		t.Error("no request ever degraded to local compute — dead-peer handling untested")
	}
	if agg.RoutedRemote == 0 || agg.Proxied == 0 || agg.PeerServed == 0 {
		t.Errorf("no real peer traffic flowed: %+v", agg)
	}
	if svcF := svcFaults.Counters(); svcF.StepErrors == 0 {
		t.Errorf("service-layer injector fired nothing: %+v", svcF)
	}
}
