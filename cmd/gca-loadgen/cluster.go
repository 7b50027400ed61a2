package main

// The in-process multi-replica harness: -replicas R builds the same
// cluster.Topology the conformance tier verifies (R service instances
// joined by consistent-hash routing over in-process peers) and drives
// it closed-loop, so the sharded tier's latency can be measured without
// standing up R OS processes. -batch groups items through
// SubmitBatch — the one-ticket batch path — and reports per-item cost
// against the single-request baseline. The report always splits clean
// vs degraded latency and breaks p50/p99 down per shard owner, plus the
// peer-traffic and cache-federation counters the topology accumulated.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gcacc"
	"gcacc/internal/cluster"
	"gcacc/internal/fault"
	"gcacc/internal/graph"
	"gcacc/internal/service"
	"gcacc/internal/sparse"
)

// topoOptions carries the multi-replica run's knobs out of main.
type topoOptions struct {
	replicas    int
	mode        string // proxy | federate
	batch       int    // items per SubmitBatch call (0 = single requests)
	engine      gcacc.Engine
	concurrency int
	total       int
	duration    time.Duration
	vertices    int
	prob        float64
	distinct    int
	seed        int64
	nocache     bool
	faultSpec   string
}

// topoWorkerStats is one closed-loop worker's tallies; workers never
// share, so the hot path stays lock-free.
type topoWorkerStats struct {
	clean, deg []time.Duration
	byShard    map[int][]time.Duration
	ok, failed int
	peerHits   int
	fallbacks  int
}

// observe files one item outcome: latency split clean/degraded and
// keyed by the shard owner that served it.
func (st *topoWorkerStats) observe(res *cluster.Result, err error, lat time.Duration) {
	if err != nil {
		st.failed++
		return
	}
	st.ok++
	if res.PeerCacheHit {
		st.peerHits++
	}
	if res.FallbackLocal {
		st.fallbacks++
	}
	if res.Degraded {
		st.deg = append(st.deg, lat)
	} else {
		st.clean = append(st.clean, lat)
	}
	st.byShard[res.Owner] = append(st.byShard[res.Owner], lat)
}

// runTopology drives the in-process topology and returns the bench
// points to append to a trajectory file (nil when none were measured).
func runTopology(o topoOptions) ([]benchPoint, error) {
	mode, err := cluster.ParseMode(o.mode)
	if err != nil {
		return nil, err
	}
	var inj *fault.Injector
	breakerN := 0
	if o.faultSpec != "" {
		cfg, err := fault.ParseSpec(o.faultSpec)
		if err != nil {
			return nil, err
		}
		inj = fault.New(cfg)
		breakerN = 3 // degrade under injected faults rather than fail the measurement
	}
	top, err := cluster.NewInProcessTopology(o.replicas, service.Config{
		Workers:          2,
		QueueDepth:       256,
		CacheEntries:     512,
		MaxVertices:      o.vertices + 8,
		Fault:            inj,
		BreakerThreshold: breakerN,
		BreakerCooldown:  2 * time.Millisecond,
	}, cluster.Config{Mode: mode, Fault: inj})
	if err != nil {
		return nil, err
	}
	defer top.Close()

	rng := rand.New(rand.NewSource(o.seed))
	graphs := make([]*sparse.Graph, o.distinct)
	for i := range graphs {
		graphs[i] = sparse.FromDense(graph.Gnp(o.vertices, o.prob, rng))
	}

	var (
		issued   atomic.Int64
		deadline = time.Now().Add(o.duration)
		stats    = make([]topoWorkerStats, o.concurrency)
		wg       sync.WaitGroup
	)
	itemsPer := 1
	if o.batch > 0 {
		itemsPer = o.batch
	}
	start := time.Now()
	for w := 0; w < o.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &stats[w]
			st.byShard = map[int][]time.Duration{}
			for {
				i := issued.Add(int64(itemsPer)) - int64(itemsPer)
				if o.total > 0 {
					if int(i) >= o.total {
						return
					}
				} else if time.Now().After(deadline) {
					return
				}
				entry := top.Nodes[int(i)%o.replicas]
				if o.batch > 0 {
					items := make([]cluster.BatchItem, o.batch)
					for j := range items {
						items[j] = cluster.BatchItem{
							Graph:   graphs[(int(i)+j)%len(graphs)],
							Engine:  o.engine,
							NoCache: o.nocache,
						}
					}
					t0 := time.Now()
					outs, err := entry.SubmitBatch(context.Background(), items)
					perItem := time.Since(t0) / time.Duration(o.batch)
					if err != nil {
						st.failed += o.batch
						continue
					}
					for _, oc := range outs {
						st.observe(oc.Result, oc.Err, perItem)
					}
				} else {
					t0 := time.Now()
					res, err := entry.Submit(context.Background(), service.Request{
						Sparse:  graphs[int(i)%len(graphs)],
						Engine:  o.engine,
						NoCache: o.nocache,
					})
					st.observe(res, err, time.Since(t0))
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var clean, deg []time.Duration
	byShard := map[int][]time.Duration{}
	ok, failed, peerHits, fallbacks := 0, 0, 0, 0
	for i := range stats {
		clean = append(clean, stats[i].clean...)
		deg = append(deg, stats[i].deg...)
		for s, lats := range stats[i].byShard {
			byShard[s] = append(byShard[s], lats...)
		}
		ok += stats[i].ok
		failed += stats[i].failed
		peerHits += stats[i].peerHits
		fallbacks += stats[i].fallbacks
	}

	kind := "single"
	if o.batch > 0 {
		kind = fmt.Sprintf("batch%d", o.batch)
	}
	fmt.Printf("# loadgen replicas=%d mode=%s %s engine=%s vertices=%d p=%.3f distinct=%d c=%d nocache=%v fault=%q\n",
		o.replicas, o.mode, kind, o.engine, o.vertices, o.prob, o.distinct, o.concurrency, o.nocache, o.faultSpec)
	fmt.Printf("items=%d ok=%d failed=%d elapsed=%.2fs throughput=%.1f items/s\n",
		ok+failed, ok, failed, elapsed.Seconds(), float64(ok)/elapsed.Seconds())
	label := "latency(clean)"
	if o.batch > 0 {
		label = "latency/item(clean)"
	}
	printLatency(label, clean)
	printLatency("latency(degraded)", deg)

	shards := make([]int, 0, len(byShard))
	for s := range byShard {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	for _, s := range shards {
		lats := byShard[s]
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		fmt.Printf("shard %d: n=%d p50=%s p99=%s\n",
			s, len(lats), quantile(lats, 0.50), quantile(lats, 0.99))
	}

	// Cluster-wide view: routing volume, peer traffic, federation and
	// cache effectiveness per replica and aggregated.
	var agg cluster.Stats
	var hits, misses, coalesced int64
	for i, cs := range top.Stats() {
		agg.RoutedRemote += cs.RoutedRemote
		agg.Proxied += cs.Proxied
		agg.PeerCalls += cs.PeerCalls
		agg.PeerErrors += cs.PeerErrors
		agg.PeerServed += cs.PeerServed
		agg.PeerCacheHits += cs.PeerCacheHits
		agg.PeerCacheMisses += cs.PeerCacheMisses
		agg.FallbackLocal += cs.FallbackLocal
		ss := top.Nodes[i].Service().Stats()
		hits += ss.CacheHits
		misses += ss.CacheMisses
		coalesced += ss.Coalesced
	}
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	fmt.Printf("cluster: routed=%d proxied=%d coalesced=%d peer_calls=%d peer_errors=%d peer_served=%d fallback_local=%d\n",
		agg.RoutedRemote, agg.Proxied, coalesced, agg.PeerCalls, agg.PeerErrors, agg.PeerServed, agg.FallbackLocal)
	fmt.Printf("cluster: cache hit ratio=%.3f (hits=%d misses=%d) peer_cache hits=%d misses=%d; client: peer_cache_hits=%d fallbacks=%d\n",
		ratio, hits, misses, agg.PeerCacheHits, agg.PeerCacheMisses, peerHits, fallbacks)

	if len(clean) == 0 {
		return nil, nil
	}
	sort.Slice(clean, func(i, j int) bool { return clean[i] < clean[j] })
	bp := benchPoint{
		Name:       fmt.Sprintf("Loadgen/cluster/r=%d/%s/%s", o.replicas, o.mode, kind),
		Pkg:        "gcacc/cmd/gca-loadgen",
		Iterations: int64(len(clean)),
		NsPerOp:    float64(quantile(clean, 0.50).Nanoseconds()),
		Metrics: map[string]float64{
			"p99_us":          float64(quantile(clean, 0.99).Microseconds()),
			"items/s":         float64(ok) / elapsed.Seconds(),
			"clients":         float64(o.concurrency),
			"cache_hit_ratio": ratio,
			"proxied":         float64(agg.Proxied),
			"peer_calls":      float64(agg.PeerCalls),
		},
	}
	points := []benchPoint{bp}
	for _, s := range shards {
		lats := byShard[s] // sorted above
		points = append(points, benchPoint{
			Name:       fmt.Sprintf("%s/shard%d", bp.Name, s),
			Pkg:        bp.Pkg,
			Iterations: int64(len(lats)),
			NsPerOp:    float64(quantile(lats, 0.50).Nanoseconds()),
			Metrics:    map[string]float64{"p99_us": float64(quantile(lats, 0.99).Microseconds())},
		})
	}
	return points, nil
}
