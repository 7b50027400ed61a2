package gcacc

// One benchmark per table and figure of the paper, plus scaling and
// ablation benches. cmd/gca-tables prints the corresponding tables; these
// benches measure the cost of regenerating each artefact and report the
// headline quantity of each experiment via b.ReportMetric.
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"math/rand"
	"testing"

	"gcacc/internal/congestion"
	"gcacc/internal/core"
	"gcacc/internal/graph"
	"gcacc/internal/hw"
	"gcacc/internal/msf"
	"gcacc/internal/ncell"
	"gcacc/internal/netsim"
	"gcacc/internal/pram"
	"gcacc/internal/tc"
	"gcacc/internal/trace"
)

// benchGraph builds the standard measurement workload: G(n, 0.5), the
// dense regime in which Hirschberg's algorithm is work-optimal.
func benchGraph(n int) *graph.Graph {
	return graph.Gnp(n, 0.5, rand.New(rand.NewSource(2007)))
}

// BenchmarkFigure2GCAProgram runs the full 12-generation program (the
// state machine of Figure 2) for a sweep of sizes. The 256–1024 tail is
// the scaling regime the active-region scheduler exists for: above
// n=128 the plan-routed kernels and in-place span commits dominate the
// profile, so these points are the ones that move when that machinery
// regresses.
func BenchmarkFigure2GCAProgram(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64, 128, 256, 512, 1024} {
		g := benchGraph(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var gens int
			for i := 0; i < b.N; i++ {
				res, err := core.ConnectedComponents(g)
				if err != nil {
					b.Fatal(err)
				}
				gens = res.Generations
			}
			b.ReportMetric(float64(gens), "generations")
		})
	}
}

// BenchmarkListing1PRAMReference runs the reference algorithm (Listing 1)
// on the CROW PRAM simulator for the same sweep.
func BenchmarkListing1PRAMReference(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64, 128} {
		g := benchGraph(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var steps int
			for i := 0; i < b.N; i++ {
				res, err := pram.Hirschberg(g, pram.Options{})
				if err != nil {
					b.Fatal(err)
				}
				steps = res.Costs.Steps
			}
			b.ReportMetric(float64(steps), "pram-steps")
		})
	}
}

// BenchmarkTable1Congestion regenerates Table 1: an instrumented run plus
// per-generation aggregation; the reported metric is the hottest δ.
func BenchmarkTable1Congestion(b *testing.B) {
	for _, n := range []int{16, 64} {
		g := benchGraph(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var maxDelta int
			for i := 0; i < b.N; i++ {
				rows, err := congestion.MeasureTable1(g)
				if err != nil {
					b.Fatal(err)
				}
				maxDelta = 0
				for _, r := range rows {
					if r.MaxDelta > maxDelta {
						maxDelta = r.MaxDelta
					}
				}
			}
			// Paper: the hottest generation reads one cell n+1 times.
			b.ReportMetric(float64(maxDelta), "max-δ")
		})
	}
}

// BenchmarkTable2Generations regenerates Table 2: the per-step generation
// counts, verified against an executed run.
func BenchmarkTable2Generations(b *testing.B) {
	g := benchGraph(16)
	var executed int
	for i := 0; i < b.N; i++ {
		res, err := core.ConnectedComponents(g)
		if err != nil {
			b.Fatal(err)
		}
		executed = res.Generations
		if executed != core.TotalGenerations(16) {
			b.Fatalf("executed %d generations, formula %d", executed, core.TotalGenerations(16))
		}
	}
	b.ReportMetric(float64(executed), "generations")
}

// BenchmarkGenerationFormulaSweep verifies and times the Section-3 closed
// form 1 + log n (3 log n + 8) across a doubling sweep.
func BenchmarkGenerationFormulaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for n := 2; n <= 1024; n *= 2 {
			logn := core.SubGenerations(n)
			if core.TotalGenerations(n) != 1+logn*(3*logn+8) {
				b.Fatal("formula mismatch")
			}
		}
	}
}

// BenchmarkFigure3AccessPatterns regenerates Figure 3: a fully captured
// run at n = 4 with access-pattern rendering of the first iteration.
func BenchmarkFigure3AccessPatterns(b *testing.B) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	var bytes int
	for i := 0; i < b.N; i++ {
		rec := trace.NewRecorder(0)
		_, err := core.Run(g, core.Options{
			CollectStats:    true,
			CapturePointers: true,
			Observer:        rec,
		})
		if err != nil {
			b.Fatal(err)
		}
		bytes = 0
		for _, st := range rec.Steps() {
			if st.Ctx.Iteration > 0 {
				break
			}
			bytes += len(trace.RenderAccessGrid(st, 5, 4))
		}
	}
	b.ReportMetric(float64(bytes), "rendered-bytes")
}

// BenchmarkSynthesisModel regenerates the Section-4 synthesis row and the
// scaling prediction.
func BenchmarkSynthesisModel(b *testing.B) {
	var les int
	for i := 0; i < b.N; i++ {
		for n := 4; n <= 512; n *= 2 {
			s := hw.Estimate(n)
			if n == 16 {
				les = s.LogicElements
			}
		}
	}
	if les != hw.PaperReference().LogicElements {
		b.Fatalf("model drifted from the published point: %d", les)
	}
	b.ReportMetric(float64(les), "LEs@n=16")
}

// BenchmarkCongestionModels is the Section-4 ablation: cycle cost of the
// same run under unit/replicated/tree/serial read implementations.
func BenchmarkCongestionModels(b *testing.B) {
	g := benchGraph(32)
	res, err := core.Run(g, core.Options{CollectStats: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []congestion.Model{congestion.Unit, congestion.Replicated, congestion.Tree, congestion.Serial} {
		b.Run(m.String(), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles = congestion.Cycles(res.Records, m)
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkBrentSimulation evaluates the Section-1/3 discussion: the PRAM
// algorithm under Brent's theorem with limited physical processors.
func BenchmarkBrentSimulation(b *testing.B) {
	g := benchGraph(32)
	for _, p := range []int{0, 64, 16, 4} {
		name := "unlimited"
		if p > 0 {
			name = fmt.Sprintf("p=%d", p)
		}
		b.Run(name, func(b *testing.B) {
			var time int
			for i := 0; i < b.N; i++ {
				res, err := pram.Hirschberg(g, pram.Options{PhysicalProcessors: p})
				if err != nil {
					b.Fatal(err)
				}
				time = res.Costs.Time
			}
			b.ReportMetric(float64(time), "brent-time")
		})
	}
}

// BenchmarkGCAvsBaselines compares the simulated parallel models against
// the sequential baselines on the same dense workload — the cost
// discussion of Section 3 (n² cells vs sequential Θ(n²) time).
func BenchmarkGCAvsBaselines(b *testing.B) {
	n := 64
	g := benchGraph(n)
	b.Run("gca", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.ConnectedComponents(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pram.Hirschberg(g, pram.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unionfind", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.ConnectedComponentsUnionFind(g)
		}
	})
	b.Run("bfs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.ConnectedComponentsBFS(g)
		}
	})
}

// BenchmarkEngineWorkers measures the simulator's multicore scaling (the
// engine, not the model): one full program run under different worker
// counts, at the historical n=128 point and at the n=1024 scale the
// active-region scheduler targets. ReportAllocs puts allocs/op into the
// committed trajectory (gca-benchjson), pinning the per-worker
// allocation flatness the global stepping pool guarantees: the curve
// must stay level as workers grow, not climb.
//
// The n=128/m=256/workers=1 case is the shape the serving benchmark's
// oneshot-gca workload sends: a sparse random graph on one worker. The
// n=512/m=1024/workers=1 case is the shape cluster-hot preloads before
// it times anything: 32 such graphs through the GCA engine, so its
// setup_s moves with this point.
func BenchmarkEngineWorkers(b *testing.B) {
	run := func(name string, g *graph.Graph, w int) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(g, core.Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("n=128/m=256/workers=1", benchSparseGraph(128, 256), 1)
	run("n=512/m=1024/workers=1", benchSparseGraph(512, 1024), 1)
	for _, n := range []int{128, 1024} {
		g := benchGraph(n)
		for _, w := range []int{1, 2, 4, 8} {
			run(fmt.Sprintf("n=%d/workers=%d", n, w), g, w)
		}
	}
}

// benchSparseGraph draws m random edges (self-loops and repeats dropped,
// so slightly fewer may remain) on n vertices.
func benchSparseGraph(n, m int) *graph.Graph {
	rng := rand.New(rand.NewSource(2007))
	g := graph.New(n)
	for i := 0; i < m; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// BenchmarkDesignSpaceNCell is the Section-3 design-space ablation: the
// n-cell alternative (Θ(n log n) generations, Θ(n) cells) against the
// paper's n²-cell design (Θ(log² n) generations).
func BenchmarkDesignSpaceNCell(b *testing.B) {
	for _, n := range []int{16, 64} {
		g := benchGraph(n)
		b.Run(fmt.Sprintf("ncell/n=%d", n), func(b *testing.B) {
			var gens int
			for i := 0; i < b.N; i++ {
				res, err := ncell.ConnectedComponents(g)
				if err != nil {
					b.Fatal(err)
				}
				gens = res.Generations
			}
			b.ReportMetric(float64(gens), "generations")
		})
		b.Run(fmt.Sprintf("n2cell/n=%d", n), func(b *testing.B) {
			var gens int
			for i := 0; i < b.N; i++ {
				res, err := core.ConnectedComponents(g)
				if err != nil {
					b.Fatal(err)
				}
				gens = res.Generations
			}
			b.ReportMetric(float64(gens), "generations")
		})
	}
}

// BenchmarkHardwareCellArray runs the RTL-level cell-array model of the
// Section-4 hardware (static wiring, extended cells).
func BenchmarkHardwareCellArray(b *testing.B) {
	for _, n := range []int{16, 64} {
		g := benchGraph(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var cycles int
			for i := 0; i < b.N; i++ {
				ca := hw.NewCellArray(g)
				if _, err := ca.Run(); err != nil {
					b.Fatal(err)
				}
				cycles = ca.Cycles
			}
			b.ReportMetric(float64(cycles), "hw-cycles")
		})
	}
}

// BenchmarkVerilogEmission times generating the Section-4 Verilog design.
func BenchmarkVerilogEmission(b *testing.B) {
	g := benchGraph(16)
	var bytes int
	for i := 0; i < b.N; i++ {
		bytes = len(hw.GenerateVerilog(g))
	}
	b.ReportMetric(float64(bytes), "verilog-bytes")
}

// BenchmarkButterflyCombining reproduces the Section-1 concurrent-read
// experiment: an all-to-one batch with and without Ranade-style combining.
func BenchmarkButterflyCombining(b *testing.B) {
	bf := netsim.NewButterfly(6)
	reqs := make([]netsim.Request, bf.Rows())
	for i := range reqs {
		reqs[i] = netsim.Request{Source: i, Dest: 0}
	}
	for _, combining := range []bool{false, true} {
		name := "plain"
		if combining {
			name = "combining"
		}
		b.Run(name, func(b *testing.B) {
			var cycles int
			for i := 0; i < b.N; i++ {
				st, err := bf.Route(reqs, combining)
				if err != nil {
					b.Fatal(err)
				}
				cycles = st.Cycles
			}
			b.ReportMetric(float64(cycles), "net-cycles")
		})
	}
}

// BenchmarkUniversalHashing measures the hashed memory-mapping congestion
// of the Section-1 discussion.
func BenchmarkUniversalHashing(b *testing.B) {
	m := 256
	addrs := make([]int, m)
	for i := range addrs {
		addrs[i] = 7919 * i
	}
	var avg float64
	for i := 0; i < b.N; i++ {
		avg = netsim.AverageMaxLoad(addrs, m, 10, 1)
	}
	b.ReportMetric(avg, "avg-max-load")
}

// BenchmarkTransitiveClosure compares the three closure engines — the
// companion problem of Hirschberg's original paper, run on the
// two-handed GCA, the CROW PRAM and the word-parallel Warshall baseline.
func BenchmarkTransitiveClosure(b *testing.B) {
	n := 32
	g := benchGraph(n)
	b.Run("gca-two-handed", func(b *testing.B) {
		var gens int
		for i := 0; i < b.N; i++ {
			res, err := tc.GCA(g, tc.GCAOptions{})
			if err != nil {
				b.Fatal(err)
			}
			gens = res.Generations
		}
		b.ReportMetric(float64(gens), "generations")
	})
	b.Run("pram-squaring", func(b *testing.B) {
		var steps int
		for i := 0; i < b.N; i++ {
			res, err := tc.PRAM(g)
			if err != nil {
				b.Fatal(err)
			}
			steps = res.Costs.Steps
		}
		b.ReportMetric(float64(steps), "pram-steps")
	})
	b.Run("warshall", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tc.Warshall(g)
		}
	})
}

// BenchmarkBoruvkaMSF runs the minimum-spanning-forest extension: the
// paper's mapping recipe applied to Borůvka, on the GCA and on the PRAM,
// against the sequential Kruskal baseline.
func BenchmarkBoruvkaMSF(b *testing.B) {
	n := 32
	wg := graph.RandomWeighted(n, 0.5, rand.New(rand.NewSource(2007)))
	b.Run("gca", func(b *testing.B) {
		var gens int
		for i := 0; i < b.N; i++ {
			res, err := msf.Run(wg, msf.Options{})
			if err != nil {
				b.Fatal(err)
			}
			gens = res.Generations
		}
		b.ReportMetric(float64(gens), "generations")
	})
	b.Run("pram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pram.Boruvka(wg, pram.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kruskal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.KruskalMSF(wg)
		}
	})
}

// BenchmarkInstrumentationOverhead quantifies the cost of Table-1
// instrumentation relative to a bare run.
func BenchmarkInstrumentationOverhead(b *testing.B) {
	g := benchGraph(64)
	b.Run("bare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(g, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stats", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(g, core.Options{CollectStats: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stats+pointers", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(g, core.Options{CollectStats: true, CapturePointers: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
