// Command gca-serve exposes the connected-components engine zoo as a
// long-running HTTP service backed by internal/service (bounded queue,
// worker pool, content-addressed result cache, admission control,
// graceful drain).
//
//	gca-serve -addr :8080 -workers 4 -queue 256 -cache 512
//
// API:
//
//	POST /v1/components?format=edges|matrix&engine=gca&nocache=1&labels=0
//	    Body is a graph in the "edges" or "matrix" text format of
//	    internal/graph/io.go, parsed into a sparse edge list (an edge
//	    list never costs n² bits). Returns the labelling as JSON. A
//	    malformed body or unknown engine/format answers 400, a full
//	    queue 429, an oversized body or a graph above -max-vertices 413,
//	    a dense-only engine asked for a graph above gcacc.DenseCutoff
//	    (4096) vertices 422 (the error names the sparse-capable
//	    engines), an expired deadline 504, a panicking engine 500, and
//	    a client that disconnects mid-request 499 (nginx's "client
//	    closed request"; only the access log sees it). The success body
//	    is a cluster.WireOutcome, the encoding batch items use too.
//	GET  /v1/stats      JSON metrics snapshot (queue, cache, latencies,
//	    breaker state, fallbacks, injected-fault counters).
//	PUT/GET/DELETE /v1/graphs/{name} · POST/DELETE /v1/graphs/{name}/edges
//	GET /v1/graphs/{name}/components · GET /v1/graphs
//	    The named-graph streaming API (stream.go): long-lived graphs
//	    absorbing edge appends incrementally, with ?epoch=N optimistic
//	    concurrency, deletion-tolerant recompute, and per-registry
//	    admission limits (-stream-* flags; -stream-graphs 0 disables).
//	    Stats surface at /debug/vars under "gcacc_stream".
//	GET  /healthz       liveness probe.
//	GET  /debug/vars    the same snapshot via expvar.
//
// Resilience knobs: -breaker/-breaker-cooldown configure the per-engine
// circuit breaker, whose open state degrades the engine's requests to
// the sequential engine; -degrade-depth demotes jobs to sequential under
// queue pressure; and -max-timeout caps every request's deadline budget.
// A degraded response reports "degraded": true and the engine that
// actually ran.
//
// Chaos mode (testing the above): -fault injects a deterministic
// service-wide fault schedule (internal/fault spec grammar), and -chaos
// additionally accepts a per-request schedule via the `fault` query
// parameter (rejected with 400 when -chaos is off, so production
// deployments cannot be fault-injected from outside).
//
// SIGINT/SIGTERM drain in-flight jobs before exit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gcacc"
	"gcacc/internal/cluster"
	"gcacc/internal/fault"
	"gcacc/internal/graph"
	"gcacc/internal/service"
	"gcacc/internal/stream"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		queueDepth  = flag.Int("queue", 256, "job queue depth (admission bound)")
		workers     = flag.Int("workers", 4, "worker pool size (concurrent engine runs)")
		simWorkers  = flag.Int("sim-workers", 0, "total simulator goroutine budget shared by the pool (0 = GOMAXPROCS)")
		cacheSize   = flag.Int("cache", 512, "result cache entries (negative disables)")
		timeout     = flag.Duration("timeout", 30*time.Second, "default per-request deadline (0 = none)")
		maxTimeout  = flag.Duration("max-timeout", 0, "cap on every request's deadline budget (0 = none)")
		maxVertices = flag.Int("max-vertices", graph.MaxParseVertices, "largest admitted graph")
		maxBody     = flag.Int64("max-body", 64<<20, "largest accepted request body in bytes")

		breakerN        = flag.Int("breaker", 0, "consecutive failures tripping an engine's circuit breaker; an open breaker degrades to the sequential engine (0 = off)")
		breakerCooldown = flag.Duration("breaker-cooldown", 500*time.Millisecond, "open-breaker cooldown before a half-open probe")
		degradeDepth    = flag.Int("degrade-depth", 0, "queue depth at which jobs demote to the sequential engine (0 = off)")

		faultSpec = flag.String("fault", "", "service-wide fault-injection schedule, e.g. seed=7,steperr=0.01,stepdelay=0.05:200us (empty = none)")
		chaos     = flag.Bool("chaos", false, "accept per-request fault schedules via the `fault` query parameter")

		streamGraphs   = flag.Int("stream-graphs", 64, "max named streaming graphs (0 disables the /v1/graphs API)")
		streamVertices = flag.Int("stream-max-vertices", 1<<20, "largest named streaming graph")
		streamEdges    = flag.Int("stream-max-edges", 0, "live-edge budget per streaming graph (0 = unbounded)")
		streamBatch    = flag.Int("stream-max-batch", 65536, "largest accepted mutation batch")
		streamEngine   = flag.String("stream-engine", "liutarjan", "recompute engine for streaming graphs")
		streamPeriod   = flag.Int("stream-recompute-period", 0, "force a full recompute every N accepted batches (0 = only when a deletion requires it)")

		peersCSV     = flag.String("peers", "", "comma-separated peer base URLs forming the static ring, index = member id (empty = standalone)")
		selfIdx      = flag.Int("self", 0, "this replica's index in -peers")
		clusterMode  = flag.String("cluster-mode", "proxy", "non-owner handling for cluster requests: proxy|redirect|federate")
		peerBudget   = flag.Duration("peer-budget", 100*time.Millisecond, "deadline per peer call before degrading to local compute")
		vnodes       = flag.Int("vnodes", 0, "virtual nodes per ring member (0 = default)")
		batchItems   = flag.Int("batch-items", 256, "largest accepted /v1/components/batch item count")
		batchTickets = flag.Int("batch-tickets", 4, "concurrent batch admission tickets")
	)
	flag.Parse()

	var inj *fault.Injector
	if *faultSpec != "" {
		cfg, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			log.Fatalf("gca-serve: -fault: %v", err)
		}
		inj = fault.New(cfg)
		log.Printf("gca-serve: injecting faults: %s", cfg)
	}

	svc := service.New(service.Config{
		QueueDepth:       *queueDepth,
		Workers:          *workers,
		SimWorkers:       *simWorkers,
		CacheEntries:     *cacheSize,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		MaxVertices:      *maxVertices,
		ExpvarName:       "gcacc_service",
		Fault:            inj,
		BreakerThreshold: *breakerN,
		BreakerCooldown:  *breakerCooldown,
		DegradeDepth:     *degradeDepth,
	})

	node, peerURLs, redirect, err := buildCluster(svc, clusterFlags{
		peersCSV:     *peersCSV,
		self:         *selfIdx,
		mode:         *clusterMode,
		peerBudget:   *peerBudget,
		vnodes:       *vnodes,
		batchItems:   *batchItems,
		batchTickets: *batchTickets,
	})
	if err != nil {
		log.Fatalf("gca-serve: cluster: %v", err)
	}

	mux := http.NewServeMux()
	if len(peerURLs) > 1 {
		// Multi-replica: single requests route through the ring (and carry
		// the shard-owner header); peers reach this replica's queue, cache
		// and batch runner on /internal/v1.
		mux.HandleFunc("POST /v1/components", clusterComponentsHandler(node, peerURLs, redirect, *maxBody, *chaos))
	} else {
		mux.HandleFunc("POST /v1/components", componentsHandler(svc, *maxBody, *chaos))
	}
	cluster.RegisterPeerHandlers(mux, node, *maxBody)
	mux.HandleFunc("POST /v1/components/batch", batchHandler(node, *maxBody))
	expvar.Publish("gcacc_cluster", expvar.Func(func() any { return node.Stats() }))
	if *streamGraphs > 0 {
		eng, err := gcacc.ParseEngine(*streamEngine)
		if err != nil {
			log.Fatalf("gca-serve: -stream-engine: %v", err)
		}
		reg := stream.NewRegistry(stream.RegistryConfig{
			MaxGraphs:       *streamGraphs,
			MaxVertices:     *streamVertices,
			MaxEdges:        *streamEdges,
			MaxBatch:        *streamBatch,
			Engine:          eng,
			Workers:         *simWorkers,
			RecomputePeriod: *streamPeriod,
			Fault:           inj,
		})
		newStreamAPI(reg, *maxBody).register(mux)
		expvar.Publish("gcacc_stream", expvar.Func(func() any { return reg.Stats() }))
	}
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, statsResponse{Stats: svc.Stats(), Cluster: node.Stats()})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.Handle("GET /debug/vars", expvar.Handler())

	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	cfg := svc.Config()
	log.Printf("gca-serve: listening on %s (workers=%d sim-workers=%d queue=%d cache=%d engines=%s)",
		*addr, cfg.Workers, cfg.SimWorkers, cfg.QueueDepth, cfg.CacheEntries,
		strings.Join(gcacc.EngineNames(), ","))

	select {
	case err := <-errCh:
		log.Fatalf("gca-serve: %v", err)
	case <-ctx.Done():
	}
	log.Printf("gca-serve: shutting down, draining in-flight jobs")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("gca-serve: http shutdown: %v", err)
	}
	svc.Close()
	log.Printf("gca-serve: bye")
}

// parseComponents decodes a POST /v1/components request (query knobs +
// graph body) into a service request. On failure it writes the error
// response and reports ok = false.
func parseComponents(w http.ResponseWriter, r *http.Request, maxBody int64, chaos bool) (service.Request, bool) {
	q := r.URL.Query()
	engineName := q.Get("engine")
	if engineName == "" {
		engineName = "gca"
	}
	eng, err := gcacc.ParseEngine(engineName)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return service.Request{}, false
	}

	var reqInj *fault.Injector
	if spec := q.Get("fault"); spec != "" {
		if !chaos {
			writeError(w, http.StatusBadRequest,
				errors.New("per-request fault injection requires the server's -chaos flag"))
			return service.Request{}, false
		}
		cfg, err := fault.ParseSpec(spec)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return service.Request{}, false
		}
		reqInj = fault.New(cfg)
	}

	g, err := cluster.ParseGraph(http.MaxBytesReader(w, r.Body, maxBody), q.Get("format"))
	if err != nil {
		// MaxBytesReader surfaces through the parser; keep the 413.
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
			return service.Request{}, false
		}
		writeError(w, http.StatusBadRequest, err)
		return service.Request{}, false
	}

	return service.Request{
		Sparse:  g,
		Engine:  eng,
		NoCache: q.Get("nocache") == "1" || reqInj != nil,
		Fault:   reqInj,
	}, true
}

// componentsHandler serves POST /v1/components on a standalone server:
// the request goes straight to the local service, and the result is
// encoded as owner 0, served 0 — what the one-member ring says.
func componentsHandler(svc *service.Service, maxBody int64, chaos bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, ok := parseComponents(w, r, maxBody, chaos)
		if !ok {
			return
		}
		res, err := svc.Submit(r.Context(), req)
		if err != nil {
			writeError(w, cluster.StatusOf(err), err)
			return
		}
		writeJSON(w, http.StatusOK, cluster.EncodeOutcome(cluster.ItemOutcome{Result: &cluster.Result{Result: res}},
			r.URL.Query().Get("labels") != "0"))
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, "gca-serve: encoding response:", err)
	}
}
