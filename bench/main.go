// Command gcabench is the end-to-end benchmark of gca-serve. It builds
// cmd/gca-serve from source, starts fresh server processes for one
// workload (or each of the four in turn), drives them from a single
// open-loop generator with at most two HTTP connections, checks every
// answer against its own union-find oracle and prints each metric by
// name with its unit. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": 4521, "failed": 0, "metrics": {"p50_ms": {"value": 4.91, "unit": "ms"}, …}}
//
// Run it from the repository root through bench/run.sh, which keeps the
// Go build cache inside the checkout:
//
//	bash bench/run.sh --workload oneshot-gca --seed 1 --seconds 20 --trace 0
//
// --trace 1 replaces the end-to-end pass with the traced per-layer one
// and writes its spans to .bench_build/trace/. See bench/README.md for
// the workloads and the metric dictionary.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// An end-to-end run sets up its servers at least minSetups times, and
// again while the set-ups so far took less than setupBudget, up to
// maxSetups; setup_s is the median. A one-shot set-up takes a few
// milliseconds and one slow process start moves a median of five, so the
// cheap set-ups repeat more.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = time.Second
)

// minReads is the fewest read samples a fixed-rate phase collects: p10
// and p90 need 100 (see percentile), so the phase stretches at low read
// rates.
const minReads = 100

type options struct {
	seed    int64
	seconds int
	trace   bool
	root    string // the gcacc module root
	out     string // build outputs and trace files
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one workload run. metrics are the numbers BENCHMARK.json
// names (end_to_end untraced, per_layer traced); notes are diagnostics
// printed beside them.
type result struct {
	attempted, failed int
	metrics, notes    []metric
	firstErr          error // the first failure, for the log
}

func (r *result) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}
func (r *result) note(name string, v float64, unit string) {
	r.notes = append(r.notes, metric{name, v, unit})
}

// count tallies a phase's samples into attempted and failed.
func (r *result) count(samples []sample) {
	for i := range samples {
		r.attempted++
		if err := samples[i].err; err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = err
			}
		}
	}
}

func main() {
	// SIGINT and SIGTERM cancel the run; every started server is killed
	// and waited for before run returns.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:])
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("gcabench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run; empty runs all four")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 20, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	ws := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gcabench:", err)
			return 2
		}
		ws = []workload{w}
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gcabench:", err)
		return 1
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, root: root, out: filepath.Join(root, ".bench_build")}
	bin, err := buildServer(ctx, o.root, o.out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gcabench:", err)
		return 1
	}
	var results []*result
	for _, w := range ws {
		r, err := runWorkload(ctx, w, bin, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gcabench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Print(report(w.name, o, r))
		if r.firstErr != nil {
			fmt.Fprintf(os.Stderr, "gcabench: %s: %d failed, the first: %v\n", w.name, r.failed, r.firstErr)
		}
		results = append(results, r)
	}
	line, err := summary(ws, results)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gcabench:", err)
		return 1
	}
	fmt.Println(string(line))
	for _, r := range results {
		if r.failed > 0 {
			return 1
		}
	}
	return 0
}

// runWorkload sets up fresh servers and runs one workload's phases.
func runWorkload(ctx context.Context, w workload, bin string, o options) (*result, error) {
	p := w.plan(o.seed)
	var (
		f      *fleet
		setups []float64
	)
	defer func() {
		if f != nil {
			f.stop()
		}
	}()
	least, most := minSetups, maxSetups
	if o.trace {
		least, most = 1, 1
	}
	var spent time.Duration
	for len(setups) < least || (len(setups) < most && spent < setupBudget) {
		if f != nil {
			f.stop()
		}
		// Generating the inputs left garbage; collect it now, so the
		// benchmark's own collector does not run beside a timed set-up.
		runtime.GC()
		start := time.Now()
		var err error
		if f, err = startFleet(ctx, bin, w.replicas); err != nil {
			return nil, err
		}
		if p.preload != nil {
			if err := p.preload(ctx, f); err != nil {
				return nil, err
			}
		}
		d := time.Since(start)
		spent += d
		setups = append(setups, d.Seconds())
	}
	// At most two connections in total, spread over the replicas.
	lc := newLoadClient(f.bases(), 2/w.replicas)
	defer lc.close()

	ph := phasesFor(o, w)
	res := &result{}
	warm := openLoop(ctx, lc, w.rate, ph.warm, 0, p.warm, false)
	res.count(warm)
	next := len(warm)
	if o.trace {
		return res, tracedPhases(ctx, w, p, f, lc, o, ph, res, next)
	}

	fixed := openLoop(ctx, lc, w.rate, ph.fixed, next, p.op, false)
	res.count(fixed)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := res.finish(ctx, p, f); err != nil {
		return nil, err
	}

	// p10 and p90, not the median: on a shared host each request runs
	// either at full speed or slowed by a neighbour, and the weight of the
	// two latency modes drifts between runs. The median falls between
	// them and swings by a quarter or more; p10 and p90 stay inside one
	// mode each.
	reads, writes := latencies(fixed)
	p10, err := percentile(reads, 0.1)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(reads, 0.9)
	if err != nil {
		return nil, err
	}
	res.add("p10_ms", p10, "ms")
	res.add("p90_ms", p90, "ms")
	res.add("setup_s", median(setups), "s")

	res.note("setups", float64(len(setups)), "count")
	res.note("reads", float64(len(reads)), "count")
	for _, q := range []float64{0.5, 0.99} {
		if v, err := percentile(reads, q); err == nil {
			res.note(fmt.Sprintf("p%g_ms", 100*q), v, "ms")
		}
	}
	if len(writes) > 0 {
		res.note("write_p50_ms", median(writes), "ms")
	}
	res.note("error_rate", float64(res.failed)/float64(max(res.attempted, 1)), "ratio")
	return res, nil
}

// phases are the lengths of a run's phases.
type phases struct{ warm, fixed, capacity time.Duration }

// phasesFor splits the measured seconds: a 1 s warm-up, then the rest at
// the fixed rate — traced, less a quarter for closed-loop capacity. A
// fixed-rate phase stretches until it holds minReads reads (twice that
// traced, where half the requests are traced).
func phasesFor(o options, w workload) phases {
	s := time.Duration(o.seconds) * time.Second
	ph := phases{warm: time.Second, fixed: s - time.Second}
	reads := float64(minReads)
	if o.trace {
		ph.capacity = (s / 4).Truncate(time.Second)
		ph.fixed -= ph.capacity
		reads *= 2
	}
	need := time.Duration(reads / (w.rate * w.readShare) * float64(time.Second))
	ph.fixed = max(ph.fixed, need+time.Second/10)
	return ph
}

// latencies returns the fixed-rate read and write latencies in ms. A
// failed request counts as infinitely slow: it misses any latency limit.
func latencies(samples []sample) (reads, writes []float64) {
	for i := range samples {
		s := &samples[i]
		l := ms(s.latency())
		if s.err != nil {
			l = math.Inf(1)
		}
		if s.req.kind == opRead {
			reads = append(reads, l)
		} else {
			writes = append(writes, l)
		}
	}
	return reads, writes
}

// finish runs the plan's end-of-run check and counts its wrong answers
// as failures.
func (r *result) finish(ctx context.Context, p *plan, f *fleet) error {
	if p.finish == nil {
		return nil
	}
	wrong, err := p.finish(ctx, f)
	if err != nil {
		return err
	}
	r.failed += wrong
	if wrong > 0 && r.firstErr == nil {
		r.firstErr = fmt.Errorf("%d answers disagree with the oracle's replay", wrong)
	}
	return nil
}

// tracedPhases runs the fixed-rate schedule with half the requests
// traced and makes the in-process pass on the state that phase left.
// It then runs the closed-loop capacity phase and the end check, and
// reports the per-layer metrics.
func tracedPhases(ctx context.Context, w workload, p *plan, f *fleet, lc *loadClient, o options, ph phases, res *result, next int) error {
	before, err := f.snapshot(ctx)
	if err != nil {
		return err
	}
	samples := openLoop(ctx, lc, w.rate, ph.fixed, next, p.op, true)
	res.count(samples)
	after, err := f.snapshot(ctx)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	tr := newTracer(lc)
	var base, traced []sample
	for i := range samples {
		if samples[i].traced {
			tr.addRequest(i+1, &samples[i])
			traced = append(traced, samples[i])
		} else {
			base = append(base, samples[i])
		}
	}
	runtime.GC() // so the pass does not pay for the phase's garbage
	if err := p.inproc(ctx, tr); err != nil {
		return err
	}

	// Closed-loop capacity swings by a quarter between runs on a shared
	// 2-core host, too much for an end-to-end bound; it is reported here.
	capStart := time.Now()
	capSamples := closedLoop(ctx, lc, 2, ph.capacity, next+len(samples), p.op)
	res.count(capSamples)
	if err := ctx.Err(); err != nil {
		return err
	}
	var done []time.Time
	for _, s := range capSamples {
		if s.err == nil {
			done = append(done, s.done)
		}
	}
	if err := res.finish(ctx, p, f); err != nil {
		return err
	}
	if err := tr.write(filepath.Join(o.out, "trace", fmt.Sprintf("%s-seed%d.json", w.name, o.seed))); err != nil {
		return err
	}
	if err := perLayer(res, p, base, traced, float64(len(samples)), delta(before, after), tr); err != nil {
		return err
	}
	res.add("capacity_rps", capacity(perSecond(capStart, int(ph.capacity/time.Second), done)), "req/s")
	return nil
}

// perLayer derives the per-layer metrics of a traced run from its traced
// requests, the untraced ones beside them, the server counters' deltas
// over all ops requests, and the spans.
func perLayer(res *result, p *plan, base, traced []sample, ops float64, d counters, tr *tracer) error {
	var (
		server, connWait, lateness, wait, run  []float64
		local, proxied, appends, clean, recomp []float64
		rounds                                 []float64
	)
	for i := range traced {
		s := &traced[i]
		if s.err != nil {
			continue
		}
		lateness = append(lateness, ms(s.sent.Sub(s.due)))
		connWait = append(connWait, ms(s.gotConn.Sub(s.getConn)))
		if s.req.kind == opWrite {
			if s.req.method == http.MethodPost {
				appends = append(appends, ms(s.latency()))
			}
			continue
		}
		server = append(server, ms(s.firstByte.Sub(s.wrote)))
		r := s.reply
		if !r.cached && r.runUS > 0 {
			wait = append(wait, float64(r.waitUS)/1e3)
			run = append(run, float64(r.runUS)/1e3)
		}
		switch {
		case r.owner >= 0 && r.owner == s.req.replica:
			local = append(local, ms(s.latency()))
		case r.owner >= 0:
			proxied = append(proxied, ms(s.latency()))
		case r.recomputed:
			recomp = append(recomp, ms(s.latency()))
			rounds = append(rounds, float64(r.rounds))
		case s.req.method == http.MethodGet:
			clean = append(clean, ms(s.latency()))
		}
	}
	self := selfTimes(tr.spans)
	layer := func(name string) float64 { return median(self[name]) }
	serverMS, err := percentile(server, 0.5)
	if err != nil {
		return err
	}
	lateP90, err := percentile(lateness, 0.9)
	if err != nil {
		return err
	}
	baseReads, _ := latencies(base)
	tracedReads, _ := latencies(traced)
	baseP50, err := percentile(baseReads, 0.5)
	if err != nil {
		return err
	}
	tracedP50, err := percentile(tracedReads, 0.5)
	if err != nil {
		return err
	}
	// The server's run time already holds sparse.FromDense, which the
	// facade calls for a sparse engine.
	attributed := layer("graph.parse") + layer("graph.fingerprint") + layer("cluster.route") +
		layer("http.encode") + median(wait) + median(run)
	reads := float64(len(baseReads) + len(tracedReads))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	res.add("http.server_ms", serverMS, "ms")
	res.add("http.encode_ms", layer("http.encode"), "ms")
	res.add("http.unattributed_ms", serverMS-attributed, "ms")
	res.add("engine.direct_ms", layer("engine.direct"), "ms")
	res.add("engine.generations_per_op", mean(tr.generations), "count")
	res.add("engine.runs", float64(d.completed+d.recomputes), "count")
	res.add("graph.matrix_mib_per_op", p.matrixMiB, "MiB")
	res.add("service.cache_hit_ratio", ratio(float64(d.cacheHits), float64(d.cacheHits+d.cacheMisses)), "ratio")
	res.add("service.evictions_per_op", ratio(float64(d.cacheEvictions), reads), "ratio")
	res.add("service.coalesced", float64(d.coalesced), "count")
	res.add("service.rejected_429", float64(d.rejectedFull), "count")
	res.add("cluster.proxied_share", ratio(float64(d.proxied), reads), "ratio")
	res.add("cluster.peer_errors", float64(d.peerErrors), "count")
	res.add("cluster.fallback_local", float64(d.fallbackLocal), "count")
	res.add("stream.recomputes", float64(d.recomputes), "count")
	res.add("stream.rounds_per_recompute", mean(rounds), "count")
	res.add("proc.cpu_ms_per_op", ratio(float64(d.cpuTicks)*1000/clockTicks, ops), "ms")
	res.add("proc.alloc_mb_per_op", ratio(float64(d.totalAlloc)/1e6, ops), "MB")
	res.add("proc.gc_per_1k_ops", ratio(float64(d.numGC)*1000, ops), "count")
	res.add("proc.peak_rss_mb", float64(d.peakRSSKB)/1024, "MB")
	res.add("client.conn_wait_ms", median(connWait), "ms")
	res.add("client.lateness_p90_ms", lateP90, "ms")
	res.add("trace.overhead_pct", 100*(tracedP50/baseP50-1), "%")
	// The untraced half's percentiles, for layer shares within this run.
	res.note("p50_ms", baseP50, "ms")
	if p90, err := percentile(baseReads, 0.9); err == nil {
		res.note("p90_ms", p90, "ms")
	}

	// Layer times that only some workloads' request paths reach; a
	// workload that bypasses a layer prints nothing for it.
	opt := func(name string, xs []float64) {
		if len(xs) > 0 {
			res.note(name, median(xs), "ms")
		}
	}
	for _, name := range []string{"graph.parse", "graph.fingerprint", "cluster.route", "sparse.from_dense", "cluster.peer_hop", "stream.recompute"} {
		opt(name+"_ms", self[name])
	}
	opt("engine.run_ms", run)
	opt("service.queue_wait_p50_ms", wait)
	if q, err := percentile(wait, 0.9); err == nil {
		res.note("service.queue_wait_p90_ms", q, "ms")
	}
	opt("cluster.local_p50_ms", local)
	opt("cluster.proxied_p50_ms", proxied)
	opt("stream.append_ms", appends)
	opt("stream.query_clean_ms", clean)
	opt("stream.query_recompute_ms", recomp)
	for _, name := range []string{"request", "client.conn_wait", "client.write", "server", "service.queue_wait", "engine.run", "client.read"} {
		opt("self."+name+"_ms", self[name])
	}
	return nil
}

// report renders one workload's metrics, one "name value unit" line
// each, diagnostics indented below.
func report(name string, o options, r *result) string {
	mode := "end-to-end"
	if o.trace {
		mode = "traced"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s seed=%d %s: %d attempted, %d failed\n", name, o.seed, mode, r.attempted, r.failed)
	for _, m := range r.metrics {
		fmt.Fprintf(&b, "%-30s %16.6f %s\n", m.name, m.value, m.unit)
	}
	for _, m := range r.notes {
		fmt.Fprintf(&b, "  %-28s %16.6f %s\n", m.name, m.value, m.unit)
	}
	return b.String()
}

// summary is the final JSON line. With more than one workload the
// metric names carry the workload as a prefix. A metric that is not a
// finite number — a p90 once a tenth of the reads failed — is left out,
// since JSON has no infinity; the line still records the failures.
func summary(ws []workload, results []*result) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for i, r := range results {
		out.Attempted += r.attempted
		out.Failed += r.failed
		for _, m := range r.metrics {
			if math.IsInf(m.value, 0) || math.IsNaN(m.value) {
				continue
			}
			key := m.name
			if len(results) > 1 {
				key = ws[i].name + "/" + m.name
			}
			out.Metrics[key] = value{m.value, m.unit}
		}
	}
	if out.Attempted == 0 {
		return nil, errors.New("no requests attempted")
	}
	out.Correct = out.Failed == 0
	return json.Marshal(out)
}
