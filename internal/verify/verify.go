// Package verify is the cross-engine conformance harness: it runs every
// connected-components engine (and the serving-layer path) over a shared
// corpus of deterministic graph families and checks three kinds of
// properties:
//
//   - differential agreement — every engine's labelling must equal the
//     union-find ground truth vertex-for-vertex (all engines implement the
//     paper's super-node convention: each vertex is labelled with the
//     smallest vertex index of its component), and the ground truth itself
//     must pass the self-contained labelling validator;
//
//   - metamorphic invariants — components are equivariant under vertex
//     relabelling, independent of edge insertion order, unchanged by
//     adding an intra-component edge, and compose over disjoint union;
//
//   - analytic oracles from the paper — an instrumented GCA run must
//     execute exactly the canonical schedule (core.Schedule), its total
//     generation count must equal the closed form 1 + log n·(3·log n + 8),
//     and the first iteration's per-generation read totals and congestion
//     δ must match the Table-1 oracles (internal/congestion).
//
// The harness is exposed three ways: table-driven tests in the repository
// root (verify_test.go, `go test -run Conformance`), native fuzz targets
// that feed mutated edge lists through CheckGraph, and the cmd/gca-verify
// CLI, which prints a machine-readable Report.
package verify

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"gcacc"
	"gcacc/internal/congestion"
	"gcacc/internal/core"
	"gcacc/internal/fault"
	"gcacc/internal/graph"
	"gcacc/internal/service"
	"gcacc/internal/sparse"
)

// Options configures a harness run.
type Options struct {
	// N is the corpus size budget (vertices per instance); < 4 is clamped
	// to 4.
	N int
	// Seed drives the random corpus families and the metamorphic
	// transformations; a (N, Seed) pair reproduces a run exactly.
	Seed int64
	// Engines are the engines to conform; nil selects all of them.
	Engines []gcacc.Engine
	// Service additionally routes every engine through the serving layer
	// (admission, queue, worker pool, cache) and holds its results to the
	// same ground truth.
	Service bool
	// FaultSpec, if non-empty, adds a "service-faulty" path: a second
	// service instance injecting the parsed fault schedule
	// (fault.ParseSpec vocabulary) with the breaker and its sequential
	// fallback enabled. Requests on this path may legitimately error —
	// those are counted, not failed — but every result that does come
	// back must still equal the union-find ground truth: faults may
	// surface as errors or documented fallbacks, never as a silently
	// wrong answer.
	FaultSpec string
	// Metamorphic enables the metamorphic invariant checks (four extra
	// engine runs per engine and case).
	Metamorphic bool
	// Oracles enables the analytic oracle checks on an instrumented GCA
	// run (schedule sequencing, closed-form generation count, Table-1 read
	// and congestion totals).
	Oracles bool
	// Workers is the simulator goroutine budget per direct run
	// (< 1 = GOMAXPROCS).
	Workers int
}

// runner executes one engine over one of the three paths.
type runner struct {
	engine  gcacc.Engine
	path    string // "direct" | "service" | "service-faulty"
	svc     *service.Service
	workers int
	// faulty marks the fault-injected service path: engine errors are
	// tolerated (and counted), and run-cost oracles that assume a clean
	// run of the requested engine are skipped — a result may come from
	// the sequential fallback. Label agreement is never waived.
	faulty bool
}

func (r *runner) run(g *graph.Graph) (*gcacc.Report, error) {
	if r.svc != nil {
		res, err := r.svc.Submit(context.Background(), service.Request{Sparse: sparse.FromDense(g), Engine: r.engine})
		if err != nil {
			return nil, err
		}
		return &gcacc.Report{
			Labels:      res.Labels,
			Components:  res.Components,
			Generations: res.Generations,
			PRAMSteps:   res.PRAMSteps,
		}, nil
	}
	return gcacc.ConnectedComponentsWith(g, gcacc.Options{Engine: r.engine, Workers: r.workers})
}

// Run executes the full conformance harness and returns its report. The
// returned error covers harness malfunction only (e.g. the service could
// not be built); conformance violations are reported as Report.Failures.
func Run(opt Options) (*Report, error) {
	if opt.N < 4 {
		opt.N = 4
	}
	engines := opt.Engines
	if len(engines) == 0 {
		engines = gcacc.Engines()
	}
	for _, e := range engines {
		if !e.Valid() {
			return nil, fmt.Errorf("verify: invalid engine %d", int(e))
		}
	}

	cases := Corpus(opt.N, opt.Seed)
	rep := &Report{N: opt.N, Seed: opt.Seed, Families: Families(cases), Cases: len(cases)}

	var runners []*runner
	for _, e := range engines {
		runners = append(runners, &runner{engine: e, path: "direct", workers: opt.Workers})
	}
	if opt.Service {
		// One shared service instance: the corpus flows through the same
		// queue/cache machinery production requests do. The union graphs of
		// the metamorphic checks can exceed the corpus budget by a few
		// vertices, so leave headroom in the admission cap.
		svc := service.New(service.Config{
			Workers:     2,
			QueueDepth:  64,
			SimWorkers:  opt.Workers,
			MaxVertices: 2*opt.N + 8,
		})
		defer svc.Close()
		for _, e := range engines {
			runners = append(runners, &runner{engine: e, path: "service", svc: svc})
		}
	}
	if opt.FaultSpec != "" {
		cfg, err := fault.ParseSpec(opt.FaultSpec)
		if err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
		rep.FaultSpec = cfg.String()
		// The chaos path: same corpus, but every engine run is subjected
		// to the fault schedule with the breaker and its sequential
		// fallback in front of it. A short cooldown keeps the tier fast.
		faultySvc := service.New(service.Config{
			Workers:          2,
			QueueDepth:       64,
			SimWorkers:       opt.Workers,
			MaxVertices:      2*opt.N + 8,
			Fault:            fault.New(cfg),
			BreakerThreshold: 3,
			BreakerCooldown:  2 * time.Millisecond,
		})
		defer faultySvc.Close()
		for _, e := range engines {
			runners = append(runners, &runner{engine: e, path: "service-faulty", svc: faultySvc, faulty: true})
		}
	}

	summaries := make(map[*runner]*EngineSummary, len(runners))
	for _, r := range runners {
		s := &EngineSummary{Engine: r.engine.String(), Path: r.path}
		summaries[r] = s
	}

	for ci, c := range cases {
		rng := rand.New(rand.NewSource(opt.Seed ^ int64(1000003*(ci+1))))
		caseCheck := func(ok bool, check, detail string, args ...any) {
			rep.Checks++
			if !ok {
				rep.Failures = append(rep.Failures, Failure{
					Case: c.Name, Check: check, Detail: fmt.Sprintf(detail, args...),
				})
			}
		}

		// Ground truth: union-find, independently validated.
		truth := graph.ConnectedComponentsUnionFind(c.Graph)
		caseCheck(graph.IsValidComponentLabelling(c.Graph, truth), "ground-truth",
			"union-find labelling failed the independent validator")
		if c.WantComponents >= 0 {
			got := graph.ComponentCount(truth)
			caseCheck(got == c.WantComponents, "ground-truth",
				"component count %d, family expects %d", got, c.WantComponents)
		}

		for _, r := range runners {
			s := summaries[r]
			s.Cases++
			check := func(ok bool, check, detail string, args ...any) {
				rep.Checks++
				s.Checks++
				if !ok {
					s.Failures++
					rep.Failures = append(rep.Failures, Failure{
						Case: c.Name, Engine: r.engine.String() + "/" + r.path,
						Check: check, Detail: fmt.Sprintf(detail, args...),
					})
				}
			}

			res, err := r.run(c.Graph)
			if err != nil {
				if r.faulty {
					// Errors are a documented legitimate outcome under
					// injected faults; a wrong answer never is.
					s.Errors++
					continue
				}
				check(false, "differential", "engine error: %v", err)
				continue
			}
			check(labelsEqual(res.Labels, truth), "differential",
				"labelling deviates from union-find: %s", diffLabels(res.Labels, truth))
			check(res.Components == graph.ComponentCount(truth), "differential",
				"component count %d, ground truth %d", res.Components, graph.ComponentCount(truth))
			if r.engine == gcacc.EngineGCA && !r.faulty {
				want := gcacc.TotalGenerations(c.Graph.N())
				check(res.Generations == want, "generations",
					"GCA ran %d generations, closed form says %d", res.Generations, want)
			}
			if r.engine == gcacc.EnginePRAM && !r.faulty && c.Graph.N() >= 2 {
				check(res.PRAMSteps > 0, "generations", "PRAM reported zero steps")
			}

			if opt.Metamorphic && r.path == "direct" {
				metamorphic(c, r, res.Labels, rng, check)
			}
		}

		if opt.Oracles {
			oracleChecks(c, opt.Workers, caseCheck)
		}
	}

	for _, r := range runners {
		rep.Engines = append(rep.Engines, *summaries[r])
	}
	return rep, nil
}

// metamorphic runs the four invariant transformations for one engine.
func metamorphic(c Case, r *runner, base []int, rng *rand.Rand,
	check func(ok bool, check, detail string, args ...any)) {
	g := c.Graph
	n := g.N()

	// 1. Vertex relabelling equivariance: relabel with a random
	// permutation; the partition must transport along it.
	perm := rng.Perm(n)
	permuted := graph.Permute(g, perm)
	if res, err := r.run(permuted); err != nil {
		check(false, "metamorphic/permutation", "engine error: %v", err)
	} else {
		transported := make([]int, n)
		for v, l := range base {
			transported[perm[v]] = l
		}
		check(graph.SamePartition(transported, res.Labels), "metamorphic/permutation",
			"partition not equivariant under vertex relabelling")
	}

	// 2. Edge-order independence: rebuilding the graph from its edges in a
	// shuffled order must give the same fingerprint and the same labels.
	edges := g.Edges()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	shuffled := graph.New(n)
	for _, e := range edges {
		shuffled.AddEdge(e.U, e.V)
	}
	check(shuffled.Fingerprint() == g.Fingerprint(), "metamorphic/edge-order",
		"fingerprint depends on edge insertion order")
	if res, err := r.run(shuffled); err != nil {
		check(false, "metamorphic/edge-order", "engine error: %v", err)
	} else {
		check(labelsEqual(res.Labels, base), "metamorphic/edge-order",
			"labels depend on edge insertion order: %s", diffLabels(res.Labels, base))
	}

	// 3. Adding an edge inside an existing component never changes the
	// partition (skipped when the graph has no such non-edge).
	if u, v, ok := intraComponentNonEdge(g, base, rng); ok {
		augmented := g.Clone()
		augmented.AddEdge(u, v)
		if res, err := r.run(augmented); err != nil {
			check(false, "metamorphic/intra-edge", "engine error: %v", err)
		} else {
			check(labelsEqual(res.Labels, base), "metamorphic/intra-edge",
				"adding intra-component edge {%d,%d} changed the partition: %s",
				u, v, diffLabels(res.Labels, base))
		}
	}

	// 4. Disjoint union composes partitions: labels of g ⊔ P₃ are the
	// labels of g followed by the path's labels shifted by n.
	tail := graph.Path(3)
	union := graph.DisjointUnion(g, tail)
	want := make([]int, 0, n+3)
	want = append(want, base...)
	want = append(want, n, n, n)
	if res, err := r.run(union); err != nil {
		check(false, "metamorphic/disjoint-union", "engine error: %v", err)
	} else {
		check(labelsEqual(res.Labels, want), "metamorphic/disjoint-union",
			"disjoint union does not compose partitions: %s", diffLabels(res.Labels, want))
	}
}

// oracleChecks validates one instrumented GCA run of the case against the
// paper's analytic claims.
func oracleChecks(c Case, workers int,
	check func(ok bool, check, detail string, args ...any)) {
	g := c.Graph
	n := g.N()
	res, err := core.Run(g, core.Options{Workers: workers, CollectStats: true})
	if err != nil {
		check(false, "oracle/run", "instrumented run failed: %v", err)
		return
	}

	// Closed form (paper Section 3 / Table 2): 1 + log n · (3·log n + 8).
	check(res.Generations == core.TotalGenerations(n), "oracle/generations",
		"ran %d generations, closed form says %d", res.Generations, core.TotalGenerations(n))

	// Sequencing: the recorded control contexts must equal the canonical
	// schedule step for step.
	sched := core.Schedule(n, 0)
	if !check2(len(res.Records) == len(sched), check, "oracle/schedule",
		"recorded %d steps, schedule has %d", len(res.Records), len(sched)) {
		return
	}
	for i, rec := range res.Records {
		want := sched[i]
		if rec.Iteration != want.Iteration || rec.Generation != want.Generation || rec.Sub != want.Sub {
			check(false, "oracle/schedule",
				"step %d ran (it=%d gen=%d sub=%d), schedule says (it=%d gen=%d sub=%d)",
				i, rec.Iteration, rec.Generation, rec.Sub, want.Iteration, want.Generation, want.Sub)
			return
		}
	}
	check(true, "oracle/schedule", "")

	// Table 1: per-generation read totals (exact), congestion δ (exact for
	// data-independent generations, bounded for 10/11), active cells
	// (bounded by the executing-cell count).
	for _, row := range congestion.AggregateFirstIteration(res) {
		wantReads := congestion.ReadsOracle(row.Generation, n)
		check(row.ReadsTotal == wantReads, "oracle/reads",
			"gen %d (%s): %d reads, Table 1 says %d", row.Generation, row.Name, row.ReadsTotal, wantReads)
		delta, exact := congestion.DeltaOracle(row.Generation, n)
		if exact {
			check(row.MaxDelta == delta, "oracle/congestion",
				"gen %d (%s): max δ = %d, Table 1 says %d", row.Generation, row.Name, row.MaxDelta, delta)
		} else {
			check(row.MaxDelta <= delta, "oracle/congestion",
				"gen %d (%s): max δ = %d exceeds the worst-case bound %d", row.Generation, row.Name, row.MaxDelta, delta)
		}
		bound := congestion.ActiveBound(row.Generation, n)
		check(row.ActiveMax <= bound, "oracle/active",
			"gen %d (%s): %d active cells exceed the executing-cell bound %d",
			row.Generation, row.Name, row.ActiveMax, bound)
	}
}

// check2 is check with a usable return value for early exits.
func check2(ok bool, check func(ok bool, check, detail string, args ...any),
	name, detail string, args ...any) bool {
	check(ok, name, detail, args...)
	return ok
}

// CheckGraph runs the given engines on g and returns an error describing
// the first labelling that deviates from the union-find ground truth (or
// fails the independent validator). It is the core of the fuzz targets:
// a fuzzer-mutated edge list goes through the full differential check.
func CheckGraph(g *graph.Graph, engines []gcacc.Engine) error {
	truth := graph.ConnectedComponentsUnionFind(g)
	if !graph.IsValidComponentLabelling(g, truth) {
		return fmt.Errorf("verify: union-find ground truth failed the independent validator")
	}
	for _, e := range engines {
		rep, err := gcacc.ConnectedComponentsWith(g, gcacc.Options{Engine: e})
		if err != nil {
			return fmt.Errorf("verify: engine %s: %w", e, err)
		}
		if !labelsEqual(rep.Labels, truth) {
			return fmt.Errorf("verify: engine %s deviates from union-find: %s", e, diffLabels(rep.Labels, truth))
		}
		if e == gcacc.EngineGCA && rep.Generations != gcacc.TotalGenerations(g.N()) {
			return fmt.Errorf("verify: engine gca ran %d generations, closed form says %d",
				rep.Generations, gcacc.TotalGenerations(g.N()))
		}
	}
	return nil
}

func labelsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffLabels describes the first disagreement between two labellings.
func diffLabels(got, want []int) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("vertex %d labelled %d, want %d", i, got[i], want[i])
		}
	}
	return "labellings agree"
}

// intraComponentNonEdge picks a random absent edge whose endpoints already
// share a component, if one exists.
func intraComponentNonEdge(g *graph.Graph, labels []int, rng *rand.Rand) (int, int, bool) {
	n := g.N()
	var cand []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if labels[u] == labels[v] && !g.HasEdge(u, v) {
				cand = append(cand, graph.Edge{U: u, V: v})
			}
		}
	}
	if len(cand) == 0 {
		return 0, 0, false
	}
	e := cand[rng.Intn(len(cand))]
	return e.U, e.V, true
}
