package trace

import (
	"strings"
	"testing"

	"gcacc/internal/core"
	"gcacc/internal/gca"
	"gcacc/internal/graph"
)

// recordRun executes the GCA program on g with full capture and returns
// the recorded steps.
func recordRun(t *testing.T, g *graph.Graph, maxSteps int) *Recorder {
	t.Helper()
	rec := NewRecorder(maxSteps)
	_, err := core.Run(g, core.Options{
		CollectStats:    true,
		CapturePointers: true,
		Observer:        rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func paperN4Graph() *graph.Graph {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	return g
}

func TestRecorderCapturesEveryStep(t *testing.T) {
	g := paperN4Graph()
	rec := recordRun(t, g, 0)
	if len(rec.Steps()) != core.TotalGenerations(4) {
		t.Fatalf("recorded %d steps, want %d", len(rec.Steps()), core.TotalGenerations(4))
	}
	if rec.dropped != 0 {
		t.Fatalf("dropped %d steps", rec.dropped)
	}
	for i, st := range rec.Steps() {
		if len(st.Data) != 20 {
			t.Fatalf("step %d: %d data cells, want 20", i, len(st.Data))
		}
		if st.Pointers == nil || st.Changed == nil {
			t.Fatalf("step %d: capture missing", i)
		}
	}
}

func TestRecorderCap(t *testing.T) {
	g := paperN4Graph()
	rec := recordRun(t, g, 3)
	if len(rec.Steps()) != 3 {
		t.Fatalf("recorded %d steps, want 3", len(rec.Steps()))
	}
	if rec.dropped != core.TotalGenerations(4)-3 {
		t.Fatalf("dropped %d", rec.dropped)
	}
}

func TestGeneration1AccessPattern(t *testing.T) {
	// Figure 3, generation 1: every cell of column i points to <i>[0],
	// i.e. linear target i·n. For n = 4 every row reads "→0 →4 →8 →12".
	rec := recordRun(t, paperN4Graph(), 0)
	gen1 := rec.Steps()[1]
	if gen1.Ctx.Generation != core.GenCopyC {
		t.Fatalf("step 1 is generation %d", gen1.Ctx.Generation)
	}
	for idx := 0; idx < 20; idx++ {
		want := int32((idx % 4) * 4)
		if gen1.Pointers[idx] != want {
			t.Fatalf("gen 1 pointer[%d] = %d, want %d", idx, gen1.Pointers[idx], want)
		}
	}
	out := RenderAccessGrid(gen1, 5, 4)
	for _, frag := range []string{"→0", "→4", "→8", "→12"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("access grid missing %q:\n%s", frag, out)
		}
	}
}

func TestGeneration2AccessPattern(t *testing.T) {
	// Figure 3, generation 2: row j of the square field reads <n>[j]
	// (targets 16+j for n = 4); the bottom row performs no read.
	rec := recordRun(t, paperN4Graph(), 0)
	gen2 := rec.Steps()[2]
	if gen2.Ctx.Generation != core.GenMaskAdj {
		t.Fatalf("step 2 is generation %d", gen2.Ctx.Generation)
	}
	for idx := 0; idx < 16; idx++ {
		want := int32(16 + idx/4)
		if gen2.Pointers[idx] != want {
			t.Fatalf("gen 2 pointer[%d] = %d, want %d", idx, gen2.Pointers[idx], want)
		}
	}
	for idx := 16; idx < 20; idx++ {
		if gen2.Pointers[idx] != int32(gca.NoRead) {
			t.Fatalf("gen 2 bottom row cell %d reads", idx)
		}
	}
}

func TestDataGridShowsInfinity(t *testing.T) {
	rec := recordRun(t, paperN4Graph(), 0)
	gen2 := rec.Steps()[2]
	out := RenderDataGrid(gen2, 5, 4)
	if !strings.Contains(out, "∞") {
		t.Fatalf("masked grid missing ∞:\n%s", out)
	}
}

func TestGoldenGeneration0Grid(t *testing.T) {
	// Generation 0 initialises d ← row(index); rows 1–4 change (row 0 is
	// already 0). The rendered data grid is fully deterministic.
	rec := recordRun(t, paperN4Graph(), 1)
	out := RenderDataGrid(rec.Steps()[0], 5, 4)
	want := "" +
		"+----+----+----+----+\n" +
		"| 0  | 0  | 0  | 0  |\n" +
		"+----+----+----+----+\n" +
		"| 1* | 1* | 1* | 1* |\n" +
		"+----+----+----+----+\n" +
		"| 2* | 2* | 2* | 2* |\n" +
		"+----+----+----+----+\n" +
		"| 3* | 3* | 3* | 3* |\n" +
		"+----+----+----+----+\n" +
		"| 4* | 4* | 4* | 4* |\n" +
		"+----+----+----+----+\n"
	if out != want {
		t.Fatalf("golden mismatch:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

func TestRenderEmpty(t *testing.T) {
	if renderGrid(0, 4, nil) != "" || renderGrid(4, 0, nil) != "" {
		t.Fatal("degenerate grid not empty")
	}
}

func TestSummary(t *testing.T) {
	st := Step{Ctx: gca.Context{Iteration: 2, Generation: 3, Sub: 1}, Active: 7, MaxDelta: 4}
	got := Summary(st)
	for _, frag := range []string{"iter=2", "gen=3", "sub=1", "active=7", "maxδ=4"} {
		if !strings.Contains(got, frag) {
			t.Fatalf("Summary = %q missing %q", got, frag)
		}
	}
}

func TestFinalStateHoldsLabels(t *testing.T) {
	// The last recorded step's column 0 must be the component labels.
	g := paperN4Graph()
	rec := recordRun(t, g, 0)
	last := rec.Steps()[len(rec.Steps())-1]
	want := []gca.Value{0, 0, 2, 2}
	for j := 0; j < 4; j++ {
		if last.Data[j*4] != want[j] {
			t.Fatalf("final column 0 = [%v %v %v %v], want %v",
				last.Data[0], last.Data[4], last.Data[8], last.Data[12], want)
		}
	}
}
