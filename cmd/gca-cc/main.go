// Command gca-cc computes the connected components of an undirected graph
// on the simulated Global Cellular Automaton (or comparison engines):
//
//	gca-cc -in graph.txt -format matrix
//	gca-cc -in graph.el -format edges -engine pram
//	gca-cc -in million.el -sparse -engine liutarjan
//	gca-cc -in trace.txt -stream -engine liutarjan
//	echo '3 1
//	0 2' | gca-cc -format edges -stats
//
// It prints one "vertex label" pair per line, the component count, and —
// with -stats — the per-generation activity/congestion summary.
//
// -sparse switches to the streaming edge-list parser and the sparse
// edge-list representation: no n² structure is ever built, so inputs
// with millions of vertices work — with a sparse-capable engine
// (liutarjan, logdiameter, sequential, or the unionfind/bfs baselines).
//
// -stream replays a mutation trace (the "stream n" / "+ u v" / "- u v" /
// "?" text format of internal/stream) through the incremental streaming
// state: appends union in near-constant time, deleting a spanning-forest
// edge forces the next query through a full recompute on -engine, and
// -recompute-period schedules periodic full recomputes regardless.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gcacc"
	"gcacc/internal/congestion"
	"gcacc/internal/core"
	"gcacc/internal/graph"
	"gcacc/internal/pram"
	"gcacc/internal/sparse"
	"gcacc/internal/stream"
)

func main() {
	var (
		in     = flag.String("in", "-", "input file ('-' = stdin)")
		format = flag.String("format", "edges", "input format: edges|matrix")
		engine = flag.String("engine", "gca",
			"engine: "+strings.Join(gcacc.EngineNames(), "|")+"|bfs|dfs|unionfind")
		stats    = flag.Bool("stats", false, "print per-generation statistics (gca engine)")
		quiet    = flag.Bool("quiet", false, "suppress per-vertex output")
		sparseIn = flag.Bool("sparse", false, "stream the edge list into the sparse representation (no n² cap; edges format only)")
		streamIn = flag.Bool("stream", false, "replay a mutation trace (internal/stream text format) incrementally")
		period   = flag.Int("recompute-period", 0, "with -stream: force a full recompute every N accepted batches (0 = only when a deletion requires it)")
	)
	flag.Parse()

	if *streamIn {
		if err := runStream(*in, *engine, *period, *quiet); err != nil {
			fatal(err)
		}
		return
	}

	if *sparseIn {
		if *format != "edges" {
			fatal(fmt.Errorf("-sparse reads the edges format only, not %q", *format))
		}
		if err := runSparse(*in, *engine, *quiet); err != nil {
			fatal(err)
		}
		return
	}

	g, err := readGraph(*in, *format)
	if err != nil {
		fatal(err)
	}

	labels, extra, err := run(g, *engine, *stats)
	if err != nil {
		fatal(err)
	}

	if !*quiet {
		for v, l := range labels {
			fmt.Printf("%d %d\n", v, l)
		}
	}
	fmt.Printf("# vertices=%d edges=%d components=%d engine=%s\n",
		g.N(), g.M(), graph.ComponentCount(labels), *engine)
	if extra != "" {
		fmt.Print(extra)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gca-cc:", err)
	os.Exit(1)
}

// runSparse is the million-vertex path: stream-parse, run a
// sparse-capable engine (or baseline), print the same output shape as
// the dense path.
func runSparse(path, engine string, quiet bool) error {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }() // read-only input
		r = f
	}
	g, err := sparse.ReadEdgeStream(r)
	if err != nil {
		return err
	}

	var labels []int
	var extra string
	switch engine {
	case "bfs":
		labels = sparse.ConnectedComponentsBFS(g)
	case "unionfind":
		labels = sparse.ConnectedComponentsUnionFind(g)
	default:
		eng, err := gcacc.ParseEngine(engine)
		if err != nil {
			return fmt.Errorf("%w (or a sparse baseline: bfs|unionfind)", err)
		}
		rep, err := gcacc.ConnectedComponentsSparse(context.Background(), g, gcacc.Options{Engine: eng})
		if err != nil {
			return err
		}
		labels = rep.Labels
		if rep.Generations > 0 {
			extra = fmt.Sprintf("# %s rounds=%d\n", eng, rep.Generations)
		}
	}

	if !quiet {
		for v, l := range labels {
			fmt.Printf("%d %d\n", v, l)
		}
	}
	fmt.Printf("# vertices=%d edges=%d components=%d engine=%s representation=sparse\n",
		g.N(), g.M(), sparse.ComponentCount(labels), engine)
	fmt.Print(extra)
	return nil
}

// runStream replays a mutation trace through the incremental streaming
// state: appends union in near-constant time, deleting a spanning-forest
// edge dirties the graph and the next query pays one full recompute on
// the chosen engine. One
// line per query shows the labelling evolve; the final summary counts
// how often the incremental fast path sufficed.
func runStream(path, engine string, period int, quiet bool) error {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }() // read-only input
		r = f
	}
	tr, err := stream.ReadTrace(r)
	if err != nil {
		return err
	}
	eng, err := gcacc.ParseEngine(engine)
	if err != nil {
		return err
	}
	st, err := stream.NewState(tr.N, stream.Config{Engine: eng, RecomputePeriod: period})
	if err != nil {
		return err
	}

	ctx := context.Background()
	queries, recomputes := 0, 0
	var last *stream.Snapshot
	for i, op := range tr.Ops {
		switch op.Kind {
		case stream.OpQuery:
			snap, err := st.Components(ctx)
			if err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
			queries++
			if snap.Recomputed {
				recomputes++
			}
			fmt.Printf("# query %d: epoch=%d components=%d engine=%s", queries, snap.Epoch, snap.Components, snap.Engine)
			if snap.Recomputed {
				fmt.Printf(" rounds=%d", snap.Rounds)
			}
			fmt.Println()
			last = snap
		case stream.OpAppend:
			m, err := st.Append(ctx, op.Edges, stream.NoEpoch)
			if err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
			fmt.Printf("# + epoch=%d applied=%d ignored=%d\n", m.Epoch, m.Applied, m.Ignored)
		case stream.OpDelete:
			m, err := st.Delete(ctx, op.Edges, stream.NoEpoch)
			if err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
			fmt.Printf("# - epoch=%d applied=%d ignored=%d\n", m.Epoch, m.Applied, m.Ignored)
		}
	}
	if !quiet && last != nil {
		for v, l := range last.Labels {
			fmt.Printf("%d %d\n", v, l)
		}
	}
	info := st.Info()
	fmt.Printf("# vertices=%d edges=%d epoch=%d queries=%d recomputes=%d engine=%s representation=stream\n",
		info.N, info.Edges, info.Epoch, queries, recomputes, engine)
	return nil
}

func readGraph(path, format string) (*graph.Graph, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer func() { _ = f.Close() }() // read-only input
		r = f
	}
	switch format {
	case "edges":
		return graph.ReadEdgeList(r)
	case "matrix":
		return graph.ReadMatrix(r)
	default:
		return nil, fmt.Errorf("unknown format %q", format)
	}
}

func run(g *graph.Graph, engine string, stats bool) (labels []int, extra string, err error) {
	// Sequential baselines that are not facade engines.
	switch engine {
	case "bfs":
		return graph.ConnectedComponentsBFS(g), "", nil
	case "dfs":
		return graph.ConnectedComponentsDFS(g), "", nil
	case "unionfind":
		return graph.ConnectedComponentsUnionFind(g), "", nil
	}

	// Everything else goes through the facade's shared engine parser.
	eng, err := gcacc.ParseEngine(engine)
	if err != nil {
		return nil, "", fmt.Errorf("%w (or a baseline: bfs|dfs|unionfind)", err)
	}
	switch eng {
	case gcacc.EngineGCA:
		res, err := core.Run(g, core.Options{CollectStats: stats})
		if err != nil {
			return nil, "", err
		}
		extra = fmt.Sprintf("# gca generations=%d iterations=%d (formula %d)\n",
			res.Generations, res.Iterations, core.TotalGenerations(g.N()))
		if stats {
			measured := congestion.AggregateFirstIteration(res)
			extra += congestion.FormatComparison(congestion.PaperTable1(g.N()), measured)
		}
		return res.Labels, extra, nil
	case gcacc.EnginePRAM:
		res, err := pram.Hirschberg(g, pram.Options{})
		if err != nil {
			return nil, "", err
		}
		c := res.Costs
		extra = fmt.Sprintf("# pram steps=%d work=%d reads=%d writes=%d maxδ=%d\n",
			c.Steps, c.Work, c.Reads, c.Writes, c.MaxReadCongestion)
		return res.Labels, extra, nil
	default:
		rep, err := gcacc.ConnectedComponentsWith(g, gcacc.Options{Engine: eng})
		if err != nil {
			return nil, "", err
		}
		if rep.Generations > 0 {
			extra = fmt.Sprintf("# %s generations=%d\n", eng, rep.Generations)
		}
		return rep.Labels, extra, nil
	}
}
