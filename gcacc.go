// Package gcacc is a from-scratch Go reproduction of "Implementing
// Hirschberg's PRAM-Algorithm for Connected Components on a Global
// Cellular Automaton" (Jendrsczok, Hoffmann, Keller; IPDPS 2007).
//
// It provides:
//
//   - a Global Cellular Automaton (GCA) machine model with parallel
//     stepping and congestion instrumentation (internal/gca);
//   - the paper's 12-generation connected-components program
//     (internal/core);
//   - a CREW/CROW/EREW PRAM simulator running the reference algorithm of
//     the paper's Listing 1 (internal/pram);
//   - graph workloads and sequential baselines (internal/graph);
//   - the paper's congestion account (Table 1), timing models and the
//     Section-4 replication scheme (internal/congestion);
//   - an FPGA cost model reproducing the Section-4 synthesis result
//     (internal/hw);
//   - access-pattern tracing and rendering (Figure 3) (internal/trace).
//
// This root package is the convenience facade: one call computes the
// connected components of an undirected graph on the simulated GCA, with
// optional instrumentation. Binaries under cmd/ regenerate every table and
// figure of the paper; see DESIGN.md and EXPERIMENTS.md.
package gcacc

import (
	"context"
	"fmt"
	"io"

	"gcacc/internal/core"
	"gcacc/internal/fault"
	"gcacc/internal/graph"
	"gcacc/internal/hw"
	"gcacc/internal/msf"
	"gcacc/internal/ncell"
	"gcacc/internal/pram"
	"gcacc/internal/sparse"
	"gcacc/internal/tc"
)

// Graph is an undirected graph over vertices 0…n-1 backed by a dense
// adjacency bit-matrix (the paper's input representation).
type Graph = graph.Graph

// NewGraph returns an empty graph with n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// SparseGraph is an undirected graph backed by an edge list with a lazy
// CSR view — Θ(n + m) memory, the representation the sparse engines
// (EngineLiuTarjan, EngineLogDiameter) and million-vertex workloads use.
type SparseGraph = sparse.Graph

// NewSparseGraph returns an empty sparse graph with n vertices.
func NewSparseGraph(n int) *SparseGraph { return sparse.New(n) }

// ParseEdgeStream reads the "edges" text format ("n m" header, "u v"
// lines) into a sparse graph in one streaming pass; unlike the dense
// parsers it accepts vertex counts far beyond DenseCutoff.
func ParseEdgeStream(r io.Reader) (*SparseGraph, error) { return sparse.ReadEdgeStream(r) }

// DenseCutoff is the largest vertex count for which the dense n²-bit
// representation (and the dense-only engines) is offered; see
// Engine.Sparse and the serving layer's admission check.
const DenseCutoff = sparse.DenseCutoff

// Engine selects which implementation computes the components.
type Engine int

const (
	// EngineGCA runs the paper's 12-generation Global Cellular Automaton
	// program — the default.
	EngineGCA Engine = iota
	// EnginePRAM runs the reference algorithm (Listing 1) on the CROW
	// PRAM simulator.
	EnginePRAM
	// EngineSequential runs the union-find baseline.
	EngineSequential
	// EngineNCell runs the n-cell GCA design alternative (one cell per
	// node, Θ(n log n) generations) that the paper's Section 3 weighs
	// against the n²-cell design.
	EngineNCell
	// EngineHardware runs the register-transfer-level cell-array model of
	// the Section-4 hardware (static per-generation wiring plus n
	// extended cells).
	EngineHardware
	// EngineLiuTarjan runs the Liu–Tarjan concurrent label-propagation
	// algorithm (extended-connect with alteration) over the sparse
	// edge-list representation — Θ(n + m) memory, so it scales to
	// million-vertex graphs no dense engine can touch.
	EngineLiuTarjan
	// EngineLogDiameter runs the deterministic adaptation of the
	// Liu–Tarjan–Zhong log-diameter connectivity algorithm, also over the
	// sparse representation.
	EngineLogDiameter
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineGCA:
		return "gca"
	case EnginePRAM:
		return "pram"
	case EngineSequential:
		return "sequential"
	case EngineNCell:
		return "ncell"
	case EngineHardware:
		return "hardware"
	case EngineLiuTarjan:
		return "liutarjan"
	case EngineLogDiameter:
		return "logdiameter"
	default:
		return "unknown"
	}
}

// Valid reports whether e names an implemented engine.
func (e Engine) Valid() bool { return e >= EngineGCA && e <= EngineLogDiameter }

// Sparse reports whether e can run on the sparse edge-list
// representation — and therefore on graphs above DenseCutoff. The dense
// engines simulate the paper's (n+1)×n cell field or the n²-bit
// adjacency matrix and are refused above the cutoff by the serving
// layer; EngineSequential streams edges and handles both regimes.
func (e Engine) Sparse() bool {
	return e == EngineSequential || e == EngineLiuTarjan || e == EngineLogDiameter
}

// Engines returns all implemented engines in declaration order.
func Engines() []Engine {
	return []Engine{EngineGCA, EnginePRAM, EngineSequential, EngineNCell, EngineHardware,
		EngineLiuTarjan, EngineLogDiameter}
}

// EngineNames returns the parseable engine names in declaration order.
func EngineNames() []string {
	es := Engines()
	names := make([]string, len(es))
	for i, e := range es {
		names[i] = e.String()
	}
	return names
}

// ParseEngine maps an engine name ("gca", "pram", "sequential", "ncell",
// "hardware", "liutarjan", "logdiameter") to its Engine value. It is the
// one engine-name parser shared by cmd/gca-cc, cmd/gca-serve and
// cmd/gca-loadgen.
func ParseEngine(name string) (Engine, error) {
	for _, e := range Engines() {
		if name == e.String() {
			return e, nil
		}
	}
	return 0, fmt.Errorf("gcacc: unknown engine %q (valid: %v)", name, EngineNames())
}

// Options configures ConnectedComponentsWith.
//
// Not every knob applies to every engine:
//
//   - Workers (simulator goroutines; < 1 selects GOMAXPROCS) is honoured
//     by EngineGCA, EnginePRAM, EngineNCell and EngineHardware. It never
//     changes results — every engine is bit-identical for every worker
//     count. EngineSequential is a single-threaded baseline and ignores
//     it.
//   - CollectStats (per-generation activity and congestion records) is
//     meaningful only for EngineGCA; the other engines return no Records.
type Options struct {
	// Engine selects the implementation (default EngineGCA). Values
	// outside the declared engines are rejected with an error.
	Engine Engine
	// Workers is the number of simulator goroutines; < 1 selects
	// GOMAXPROCS. See the applicability table above.
	Workers int
	// CollectStats gathers per-generation activity and congestion
	// records (GCA engine only).
	CollectStats bool
	// Fault, if non-nil and enabled, threads a deterministic
	// fault-injection schedule (internal/fault) into the stepping engines:
	// EngineGCA and EngineNCell honour it through gca.StepHooks, and the
	// sparse round engines (EngineLiuTarjan, EngineLogDiameter) accept
	// the same hooks at their round and worker boundaries. EnginePRAM and
	// EngineHardware have no hook points and ignore it; EngineSequential
	// is the fallback of last resort and is never injected, which is what
	// makes degrading to it safe.
	Fault *fault.Injector
}

// Report is the detailed result of a run.
type Report struct {
	// Labels maps each vertex to the smallest vertex index in its
	// component (the paper's super-node convention).
	Labels []int
	// Components is the number of connected components.
	Components int
	// Generations is the number of synchronous GCA steps executed
	// (GCA engine only).
	Generations int
	// PRAMSteps is the number of synchronous PRAM steps (PRAM engine
	// only).
	PRAMSteps int
	// Records holds per-generation instrumentation when CollectStats was
	// set (GCA engine only).
	Records []core.GenRecord
}

// ConnectedComponents labels the connected components of g on the
// simulated GCA and returns the super-node label of every vertex.
func ConnectedComponents(g *Graph) ([]int, error) {
	res, err := core.ConnectedComponents(g)
	if err != nil {
		return nil, err
	}
	return res.Labels, nil
}

// ConnectedComponentsWith computes components with explicit options and a
// detailed report. Options.Engine values outside the declared engines are
// an error — there is no silent fallback to the default engine.
func ConnectedComponentsWith(g *Graph, opt Options) (*Report, error) {
	return ConnectedComponentsWithContext(context.Background(), g, opt)
}

// ConnectedComponentsWithContext is ConnectedComponentsWith with a
// deadline: the context is checked between the synchronous steps of the
// simulated machines, so a cancelled or expired ctx aborts a run
// mid-computation with the context's error. The serving layer
// (internal/service) threads per-request deadlines down to the engines
// through its sparse twin, ConnectedComponentsSparse.
func ConnectedComponentsWithContext(ctx context.Context, g *Graph, opt Options) (*Report, error) {
	switch opt.Engine {
	case EngineGCA:
		res, err := core.Run(g, core.Options{
			Ctx:          ctx,
			Workers:      opt.Workers,
			CollectStats: opt.CollectStats,
			Hooks:        opt.Fault.GCAHooks(ctx),
		})
		if err != nil {
			return nil, err
		}
		return &Report{
			Labels:      res.Labels,
			Components:  res.ComponentCount(),
			Generations: res.Generations,
			Records:     res.Records,
		}, nil
	case EnginePRAM:
		res, err := pram.Hirschberg(g, pram.Options{
			Ctx:        ctx,
			SimWorkers: opt.Workers,
		})
		if err != nil {
			return nil, err
		}
		return &Report{
			Labels:     res.Labels,
			Components: graph.ComponentCount(res.Labels),
			PRAMSteps:  res.Costs.Steps,
		}, nil
	case EngineSequential:
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		labels := graph.ConnectedComponentsUnionFind(g)
		return &Report{Labels: labels, Components: graph.ComponentCount(labels)}, nil
	case EngineNCell:
		res, err := ncell.Run(g, ncell.Options{
			Ctx:     ctx,
			Workers: opt.Workers,
			Hooks:   opt.Fault.GCAHooks(ctx),
		})
		if err != nil {
			return nil, err
		}
		return &Report{
			Labels:      res.Labels,
			Components:  graph.ComponentCount(res.Labels),
			Generations: res.Generations,
		}, nil
	case EngineHardware:
		ca := hw.NewCellArray(g)
		ca.Workers = opt.Workers
		labels, err := ca.RunContext(ctx)
		if err != nil {
			return nil, err
		}
		return &Report{
			Labels:      labels,
			Components:  graph.ComponentCount(labels),
			Generations: ca.Cycles,
		}, nil
	case EngineLiuTarjan, EngineLogDiameter:
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return ConnectedComponentsSparse(ctx, sparse.FromDense(g), opt)
	default:
		return nil, fmt.Errorf("gcacc: invalid engine %d (valid: %v)", int(opt.Engine), EngineNames())
	}
}

// ConnectedComponentsSparse computes components of a sparse edge-list
// graph. The sparse engines (see Engine.Sparse) run on it natively at
// any size up to sparse.MaxVertices; a dense-only engine is honoured by
// densifying when the graph is at most DenseCutoff vertices and refused
// with an error above it — the same boundary the serving layer enforces
// at admission. It is the serving layer's entry point, so the n²-bit
// matrix exists only inside the dense engines. Report.Generations
// carries the sparse engines' round count (their analogue of the dense
// engines' generation count).
func ConnectedComponentsSparse(ctx context.Context, g *SparseGraph, opt Options) (*Report, error) {
	if !opt.Engine.Valid() {
		return nil, fmt.Errorf("gcacc: invalid engine %d (valid: %v)", int(opt.Engine), EngineNames())
	}
	switch opt.Engine {
	case EngineLiuTarjan, EngineLogDiameter:
		sopt := sparse.Options{
			Ctx:     ctx,
			Workers: opt.Workers,
			Hooks:   opt.Fault.GCAHooks(ctx),
			Variant: sparse.DefaultVariant,
		}
		var (
			res sparse.Result
			err error
		)
		if opt.Engine == EngineLiuTarjan {
			res, err = sparse.LiuTarjan(g, sopt)
		} else {
			res, err = sparse.LogDiameter(g, sopt)
		}
		if err != nil {
			return nil, err
		}
		return &Report{
			Labels:      res.Labels,
			Components:  sparse.ComponentCount(res.Labels),
			Generations: res.Rounds,
		}, nil
	case EngineSequential:
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		labels := sparse.ConnectedComponentsUnionFind(g)
		return &Report{Labels: labels, Components: sparse.ComponentCount(labels)}, nil
	default:
		d, err := g.ToDense()
		if err != nil {
			return nil, fmt.Errorf("gcacc: engine %q needs the dense representation: %w", opt.Engine, err)
		}
		return ConnectedComponentsWithContext(ctx, d, opt)
	}
}

// TotalGenerations returns the paper's closed-form generation count for a
// graph of size n: 1 + log n · (3·log n + 8).
func TotalGenerations(n int) int { return core.TotalGenerations(n) }

// ValidateLabels reports whether labels is exactly the super-node
// labelling of g: endpoints of every edge share a label, every label class
// is internally connected, and every label is the minimum vertex index of
// its class. The checker is self-contained (its own flood fill, no engine
// code), so callers can use it as an independent oracle for any engine's
// output. It wraps graph.IsValidComponentLabelling, the oracle the
// conformance harness (internal/verify, cmd/gca-verify) calls directly.
func ValidateLabels(g *Graph, labels []int) bool {
	return graph.IsValidComponentLabelling(g, labels)
}

// Closure is a reflexive-transitive closure of an undirected graph —
// the companion problem of Hirschberg's original paper, computed here on
// the two-handed GCA (see internal/tc).
type Closure = tc.Closure

// TransitiveClosure computes the reflexive-transitive closure of g on the
// two-handed GCA by repeated boolean matrix squaring.
func TransitiveClosure(g *Graph) (*Closure, error) {
	res, err := tc.GCA(g, tc.GCAOptions{})
	if err != nil {
		return nil, err
	}
	return res.Closure, nil
}

// WeightedGraph is an undirected graph with positive integer edge
// weights.
type WeightedGraph = graph.Weighted

// NewWeightedGraph returns an edgeless weighted graph on n vertices.
func NewWeightedGraph(n int) *WeightedGraph { return graph.NewWeighted(n) }

// MSF is a minimum spanning forest (edge set and total weight).
type MSF = graph.MSF

// MinimumSpanningForest computes the minimum spanning forest of a
// weighted graph with Borůvka's algorithm mapped onto the GCA (see
// internal/msf) — one Borůvka round costs exactly the paper's
// 3·log n + 8 generations.
func MinimumSpanningForest(g *WeightedGraph) (*MSF, error) {
	res, err := msf.Run(g, msf.Options{})
	if err != nil {
		return nil, err
	}
	return res.MSF, nil
}
