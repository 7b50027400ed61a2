// Command gca-loadgen is a closed-loop load generator for gca-serve: c
// workers each keep exactly one request in flight against POST
// /v1/components and the tool reports sustained throughput and latency
// percentiles — the macro-benchmark future serving-layer PRs move.
//
//	gca-serve -addr :8080 &
//	gca-loadgen -addr http://localhost:8080 -c 8 -d 10s -vertices 64 -distinct 4
//
// With -distinct k the workers cycle through k different random graphs,
// so a cache of ≥ k entries converges to a pure hit workload; -nocache
// forces an engine run per request instead.
//
// With -fault the given schedule (internal/fault spec grammar) is
// forwarded per request via the `fault` query parameter, which the server
// only accepts when started with -chaos. The report always splits latency
// percentiles into clean vs degraded responses and adds the server's
// resilience counters — the degraded-mode p50/p99 the chaos tier
// documents. Against a sharded deployment the X-GCA-Shard-Owner header
// additionally keys a per-shard p50/p99 breakdown.
//
// With -replicas R the tool instead builds an in-process cluster of R
// replicas (the same topology the conformance tier verifies) and drives
// it directly — no server process needed. -topology picks the routing
// mode (proxy|federate), -batch N pushes items through the one-ticket
// batch path N at a time, and the report adds per-shard latency plus
// the peer-traffic, federation and cache-hit-ratio counters:
//
//	gca-loadgen -replicas 3 -n 3000 -nocache            # single-request baseline
//	gca-loadgen -replicas 3 -n 3000 -nocache -batch 32  # batch path, p50 is per item
//
// -json FILE appends the measured p50/p99/throughput (and the per-shard
// split) as a labelled trajectory point in gca-benchjson's format, so
// serving-layer numbers accumulate beside the micro-benchmarks:
//
//	gca-loadgen -replicas 3 -n 3000 -json BENCH_20260808.json -label cluster-loadgen
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gcacc"
	"gcacc/internal/cluster"
	"gcacc/internal/graph"
	"gcacc/internal/service"
)

func main() {
	var (
		addr        = flag.String("addr", "http://localhost:8080", "gca-serve base URL")
		engine      = flag.String("engine", "gca", "engine: "+strings.Join(gcacc.EngineNames(), "|"))
		concurrency = flag.Int("c", 8, "closed-loop workers (requests in flight)")
		total       = flag.Int("n", 0, "total requests (0 = run for -d)")
		duration    = flag.Duration("d", 10*time.Second, "run duration when -n is 0")
		vertices    = flag.Int("vertices", 64, "vertices per generated graph")
		prob        = flag.Float64("p", 0.06, "edge probability of the generated graphs")
		distinct    = flag.Int("distinct", 4, "number of distinct graphs cycled through")
		format      = flag.String("format", "edges", "wire format: edges|matrix")
		seed        = flag.Int64("seed", 1, "graph generator seed")
		nocache     = flag.Bool("nocache", false, "ask the server to bypass its result cache")
		faultSpec   = flag.String("fault", "", "per-request fault schedule forwarded to the server (needs gca-serve -chaos), e.g. seed=7,steperr=0.01")

		replicas = flag.Int("replicas", 0, "drive an in-process cluster of this many replicas instead of -addr (0 = HTTP mode)")
		topology = flag.String("topology", "proxy", "in-process cluster routing mode: proxy|federate")
		batch    = flag.Int("batch", 0, "submit items in batches of this size through the batch path (0 = single requests; in-process mode only)")
		jsonOut  = flag.String("json", "", "append the run's numbers to this trajectory file (gca-benchjson format)")
		label    = flag.String("label", "loadgen", "trajectory point label for -json")
	)
	flag.Parse()

	eng, err := gcacc.ParseEngine(*engine)
	if err != nil {
		fatal(err)
	}
	if *concurrency < 1 || *distinct < 1 || *vertices < 1 {
		fatal(fmt.Errorf("need -c, -distinct and -vertices >= 1"))
	}

	if *replicas > 0 {
		points, err := runTopology(topoOptions{
			replicas:    *replicas,
			mode:        *topology,
			batch:       *batch,
			engine:      eng,
			concurrency: *concurrency,
			total:       *total,
			duration:    *duration,
			vertices:    *vertices,
			prob:        *prob,
			distinct:    *distinct,
			seed:        *seed,
			nocache:     *nocache,
			faultSpec:   *faultSpec,
		})
		if err != nil {
			fatal(err)
		}
		if *jsonOut != "" && len(points) > 0 {
			if err := appendTrajectory(*jsonOut, *label, points); err != nil {
				fatal(err)
			}
		}
		return
	}
	if *batch > 0 {
		fatal(fmt.Errorf("-batch needs the in-process mode (-replicas)"))
	}

	// Pre-serialize the request bodies; generation cost must not pollute
	// the latency measurement.
	rng := rand.New(rand.NewSource(*seed))
	bodies := make([][]byte, *distinct)
	for i := range bodies {
		g := graph.Gnp(*vertices, *prob, rng)
		var buf bytes.Buffer
		var err error
		switch *format {
		case "edges":
			err = graph.WriteEdgeList(&buf, g)
		case "matrix":
			err = graph.WriteMatrix(&buf, g)
		default:
			err = fmt.Errorf("unknown format %q (edges|matrix)", *format)
		}
		if err != nil {
			fatal(err)
		}
		bodies[i] = buf.Bytes()
	}

	target := strings.TrimSuffix(*addr, "/") + "/v1/components?labels=0&format=" + *format + "&engine=" + *engine
	if *nocache {
		target += "&nocache=1"
	}
	if *faultSpec != "" {
		target += "&fault=" + url.QueryEscape(*faultSpec)
	}
	client := &http.Client{Timeout: 60 * time.Second}

	// Probe liveness before unleashing the loop.
	if resp, err := client.Get(strings.TrimSuffix(*addr, "/") + "/healthz"); err != nil {
		fatal(fmt.Errorf("server not reachable: %w", err))
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}

	type workerStats struct {
		latencies []time.Duration         // clean 200s
		degLat    []time.Duration         // degraded 200s (fallback/demoted runs)
		byShard   map[int][]time.Duration // keyed by X-GCA-Shard-Owner when present
		ok        int
		degraded  int
		rejected  int // 429
		failed    int // transport errors and other non-200s
	}
	var (
		issued   atomic.Int64
		deadline = time.Now().Add(*duration)
		stats    = make([]workerStats, *concurrency)
		wg       sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &stats[w]
			st.byShard = map[int][]time.Duration{}
			for {
				i := issued.Add(1) - 1
				if *total > 0 {
					if int(i) >= *total {
						return
					}
				} else if time.Now().After(deadline) {
					return
				}
				body := bodies[int(i)%len(bodies)]
				t0 := time.Now()
				resp, err := client.Post(target, "text/plain", bytes.NewReader(body))
				lat := time.Since(t0)
				if err != nil {
					st.failed++
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					st.ok++
					// The body tells clean from degraded (the report always
					// splits the two); labels=0 keeps it a few dozen bytes.
					var r struct {
						Degraded bool `json:"degraded"`
					}
					if json.NewDecoder(resp.Body).Decode(&r) == nil && r.Degraded {
						st.degraded++
						st.degLat = append(st.degLat, lat)
					} else {
						st.latencies = append(st.latencies, lat)
					}
					// A sharded deployment names the owner on every response.
					if shard := resp.Header.Get(cluster.OwnerHeader); shard != "" {
						if s, err := strconv.Atoi(shard); err == nil {
							st.byShard[s] = append(st.byShard[s], lat)
						}
					}
				case http.StatusTooManyRequests:
					st.rejected++
				default:
					st.failed++
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var clean, deg []time.Duration
	byShard := map[int][]time.Duration{}
	ok, degraded, rejected, failed := 0, 0, 0, 0
	for i := range stats {
		clean = append(clean, stats[i].latencies...)
		deg = append(deg, stats[i].degLat...)
		for s, lats := range stats[i].byShard {
			byShard[s] = append(byShard[s], lats...)
		}
		ok += stats[i].ok
		degraded += stats[i].degraded
		rejected += stats[i].rejected
		failed += stats[i].failed
	}
	fmt.Printf("# loadgen engine=%s vertices=%d p=%.3f distinct=%d c=%d nocache=%v fault=%q\n",
		*engine, *vertices, *prob, *distinct, *concurrency, *nocache, *faultSpec)
	fmt.Printf("requests=%d ok=%d rejected429=%d failed=%d elapsed=%.2fs throughput=%.1f req/s\n",
		ok+rejected+failed, ok, rejected, failed, elapsed.Seconds(),
		float64(ok)/elapsed.Seconds())
	if degraded > 0 || *faultSpec != "" {
		fmt.Printf("chaos: degraded=%d clean=%d\n", degraded, ok-degraded)
	}
	printLatency("latency(clean)", clean)
	printLatency("latency(degraded)", deg)
	for _, s := range sortedShards(byShard) {
		lats := byShard[s]
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		fmt.Printf("shard %d: n=%d p50=%s p99=%s\n",
			s, len(lats), quantile(lats, 0.50), quantile(lats, 0.99))
	}
	if *jsonOut != "" && len(clean) > 0 {
		sort.Slice(clean, func(i, j int) bool { return clean[i] < clean[j] })
		if err := appendTrajectory(*jsonOut, *label, []benchPoint{{
			Name:       fmt.Sprintf("Loadgen/http/%s/c=%d", *engine, *concurrency),
			Pkg:        "gcacc/cmd/gca-loadgen",
			Iterations: int64(len(clean)),
			NsPerOp:    float64(quantile(clean, 0.50).Nanoseconds()),
			Metrics: map[string]float64{
				"p99_us": float64(quantile(clean, 0.99).Microseconds()),
				"req/s":  float64(ok) / elapsed.Seconds(),
			},
		}}); err != nil {
			fatal(err)
		}
	}

	// Server-side view: cache effectiveness, queue behaviour and — under
	// faults — the resilience counters.
	if resp, err := client.Get(strings.TrimSuffix(*addr, "/") + "/v1/stats"); err == nil {
		defer func() { _ = resp.Body.Close() }()
		var payload struct {
			service.Stats
			Cluster *cluster.Stats `json:"cluster"`
		}
		if json.NewDecoder(resp.Body).Decode(&payload) == nil {
			st := payload.Stats
			fmt.Printf("server: completed=%d cache_hits=%d cache_misses=%d coalesced=%d rejected429=%d generations=%d\n",
				st.Completed, st.CacheHits, st.CacheMisses, st.Coalesced, st.RejectedFull, st.Generations)
			fmt.Printf("server: queue_wait p50=%dµs p99=%dµs · run p50=%dµs p99=%dµs\n",
				st.QueueWait.P50US, st.QueueWait.P99US, st.RunTime.P50US, st.RunTime.P99US)
			if *faultSpec != "" || st.BreakerTrips > 0 || st.DegradedOverload > 0 {
				fmt.Printf("server: breaker_trips=%d breaker_open=%d fallback=%d degraded_overload=%d panics=%d\n",
					st.BreakerTrips, st.BreakerOpen, st.FallbackBreaker, st.DegradedOverload, st.EnginePanics)
			}
			if st.Faults != nil {
				fmt.Printf("server: injected step_errors=%d step_delays=%d worker_stalls=%d over %d runs\n",
					st.Faults.StepErrors, st.Faults.StepDelays, st.Faults.WorkerStalls, st.Faults.Runs)
			}
			if cs := payload.Cluster; cs != nil && len(cs.Members) > 1 {
				fmt.Printf("server: cluster self=%d/%d routed=%d proxied=%d peer_calls=%d peer_errors=%d "+
					"peer_cache hits=%d misses=%d fallback_local=%d\n",
					cs.Self, len(cs.Members), cs.RoutedRemote, cs.Proxied, cs.PeerCalls, cs.PeerErrors,
					cs.PeerCacheHits, cs.PeerCacheMisses, cs.FallbackLocal)
			}
		}
	}
}

// sortedShards returns the shard keys in ascending order.
func sortedShards(byShard map[int][]time.Duration) []int {
	shards := make([]int, 0, len(byShard))
	for s := range byShard {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	return shards
}

// printLatency prints one percentile line, or nothing for an empty set.
func printLatency(label string, lats []time.Duration) {
	if len(lats) == 0 {
		return
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum time.Duration
	for _, d := range lats {
		sum += d
	}
	fmt.Printf("%s: n=%d p50=%s p90=%s p99=%s mean=%s min=%s max=%s\n",
		label, len(lats),
		quantile(lats, 0.50), quantile(lats, 0.90), quantile(lats, 0.99),
		(sum / time.Duration(len(lats))).Round(time.Microsecond),
		lats[0], lats[len(lats)-1])
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx].Round(time.Microsecond)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gca-loadgen:", err)
	os.Exit(1)
}
