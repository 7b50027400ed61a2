package core_test

import (
	"fmt"
	"testing"

	"gcacc/internal/core"
	"gcacc/internal/gca"
	"gcacc/internal/verify"
)

// TestPlanLockstepOnCorpus is the differential battery for active-region
// scheduling: for every conformance corpus case and every worker count in
// {1, 2, 3, 8} it steps three machines through the full Figure-2
// schedule —
//
//	span    scheduling ON  (the production fast path: sparse generations
//	        commit in place, dense ones sweep with plan-routed kernels)
//	sweep   scheduling OFF (gca.WithFullSweep: every step shards the whole
//	        field and commits by buffer swap)
//	generic the per-cell Pointer/Update reference path
//
// — and requires all three to agree bit for bit after every committed
// sub-generation: field contents, active-cell count and read count. A
// skipped shard or an in-place commit must be observationally identical
// to a full sweep, at every worker count; this test is the designated
// -race workload for the span/sweep scheduling split.
func TestPlanLockstepOnCorpus(t *testing.T) {
	// Budgets 9 and 16 exercise both the non-power-of-two guards of the
	// reduction generations and the clean power-of-two schedule.
	for _, budget := range []int{9, 16} {
		for _, workers := range []int{1, 2, 3, 8} {
			t.Run(fmt.Sprintf("budget=%d/workers=%d", budget, workers), func(t *testing.T) {
				for _, c := range verify.Corpus(budget, 1) {
					n := c.Graph.N()
					if n == 0 {
						continue
					}
					spanField := core.NewProgramFieldForTest(c.Graph)
					sweepField := core.NewProgramFieldForTest(c.Graph)
					genField := core.NewProgramFieldForTest(c.Graph)
					span := gca.NewMachine(spanField, core.NewProgramRule(n), gca.WithWorkers(workers))
					sweep := gca.NewMachine(sweepField, core.NewProgramRule(n), gca.WithWorkers(workers), gca.WithFullSweep())
					gen := gca.NewMachine(genField, genericOnly{core.NewProgramRule(n)}, gca.WithWorkers(workers))

					var a, b, g []gca.Value
					for step, ctx := range core.Schedule(n, 0) {
						ss, err := span.Step(ctx)
						if err != nil {
							t.Fatalf("%s: span path step %d: %v", c.Name, step, err)
						}
						spanActive, spanReads := ss.Active, ss.TotalReads
						ws, err := sweep.Step(ctx)
						if err != nil {
							t.Fatalf("%s: sweep path step %d: %v", c.Name, step, err)
						}
						sweepActive, sweepReads := ws.Active, ws.TotalReads
						gs, err := gen.Step(ctx)
						if err != nil {
							t.Fatalf("%s: generic path step %d: %v", c.Name, step, err)
						}
						if spanActive != gs.Active || spanReads != gs.TotalReads {
							t.Fatalf("%s: step %d (gen %d sub %d): span stats diverge: active=%d reads=%d, generic active=%d reads=%d",
								c.Name, step, ctx.Generation, ctx.Sub, spanActive, spanReads, gs.Active, gs.TotalReads)
						}
						if sweepActive != gs.Active || sweepReads != gs.TotalReads {
							t.Fatalf("%s: step %d (gen %d sub %d): sweep stats diverge: active=%d reads=%d, generic active=%d reads=%d",
								c.Name, step, ctx.Generation, ctx.Sub, sweepActive, sweepReads, gs.Active, gs.TotalReads)
						}
						a = spanField.Snapshot(a[:0])
						b = sweepField.Snapshot(b[:0])
						g = genField.Snapshot(g[:0])
						for i := range g {
							if a[i] != g[i] {
								t.Fatalf("%s: step %d (gen %d sub %d): cell %d diverges: span %d, generic %d",
									c.Name, step, ctx.Generation, ctx.Sub, i, a[i], g[i])
							}
							if b[i] != g[i] {
								t.Fatalf("%s: step %d (gen %d sub %d): cell %d diverges: sweep %d, generic %d",
									c.Name, step, ctx.Generation, ctx.Sub, i, b[i], g[i])
							}
						}
					}
				}
			})
		}
	}
}

// TestPlanCoversEveryGeneration pins the schedule exhaustive: every
// generation of the Figure-2 schedule must declare a valid active region
// whose segments each lie within a single row of the (n+1)×n layout —
// the contract the single-row bulk kernels are compiled against.
func TestPlanCoversEveryGeneration(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8, 13, 16} {
		lay := core.Layout{N: n}
		for _, ctx := range core.Schedule(n, 0) {
			p := core.GenerationPlan(n, ctx.Generation, ctx.Sub)
			if p.Cells() > lay.Size() {
				t.Fatalf("n=%d gen %d sub %d: plan %+v larger than the field (%d cells)",
					n, ctx.Generation, ctx.Sub, p, lay.Size())
			}
			if p == (gca.Plan{}) {
				t.Fatalf("n=%d gen %d sub %d: no declared plan (whole-field fallback)", n, ctx.Generation, ctx.Sub)
			}
			if p.SegLen > n {
				t.Fatalf("n=%d gen %d sub %d: plan segment length %d crosses a row (n=%d)",
					n, ctx.Generation, ctx.Sub, p.SegLen, n)
			}
			if p.SegLen > 0 && p.Stride > 0 {
				for s := 0; s < p.Count; s++ {
					segLo := p.Lo + s*p.Stride
					if segLo/n != (segLo+p.SegLen-1)/n {
						t.Fatalf("n=%d gen %d sub %d: segment %d [%d,%d) crosses a row boundary",
							n, ctx.Generation, ctx.Sub, s, segLo, segLo+p.SegLen)
					}
				}
			}
		}
	}
}
