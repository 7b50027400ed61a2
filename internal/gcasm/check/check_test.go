package check

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gcacc/internal/congestion"
	"gcacc/internal/core"
	"gcacc/internal/gcasm"
)

func mustParseAST(t *testing.T, src string) *gcasm.ProgramAST {
	t.Helper()
	ast, err := gcasm.ParseAST(src)
	if err != nil {
		t.Fatalf("ParseAST: %v", err)
	}
	return ast
}

func TestEmbeddedProgramsVerifyClean(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		cells func(n int) int
	}{
		{"hirschberg", gcasm.HirschbergSource, func(n int) int { return n * (n + 1) }},
		{"listrank", gcasm.ListRankSource, func(n int) int { return n }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ast := mustParseAST(t, tc.src)
			for _, n := range []int{2, 8, 16} {
				ds := Verify(ast, Options{N: n, Cells: tc.cells(n)})
				for _, d := range ds {
					t.Errorf("n=%d: unexpected diagnostic: %s", n, d)
				}
			}
		})
	}
}

// TestHirschbergBoundsMatchOracle is the acceptance cross-check: the
// verifier's static per-generation read bound for the embedded
// Hirschberg program must agree with the analytic Table-1 oracle for
// every generation. Generation declaration order matches the core.Gen*
// indices the oracle is keyed by.
func TestHirschbergBoundsMatchOracle(t *testing.T) {
	ast := mustParseAST(t, gcasm.HirschbergSource)
	if got := len(ast.Gens); got != 12 {
		t.Fatalf("Hirschberg program has %d generations, want 12", got)
	}
	for _, n := range []int{2, 3, 4, 8, 13, 16} {
		bounds := ReadBounds(ast, n, n*(n+1))
		for gi, b := range bounds {
			want := congestion.ReadsOracle(gi, n)
			if b.Reads != want {
				t.Errorf("n=%d gen %d (%s): static bound %d, oracle %d", n, gi, b.Gen, b.Reads, want)
			}
			wantExact := gi != core.GenShortcut && gi != core.GenFinalMin
			if b.Exact != wantExact {
				t.Errorf("n=%d gen %d (%s): exact=%v, want %v", n, gi, b.Gen, b.Exact, wantExact)
			}
		}
	}
}

func categories(ds []Diagnostic) map[string]int {
	m := map[string]int{}
	for _, d := range ds {
		m[d.Category]++
	}
	return m
}

func wantDiag(t *testing.T, ds []Diagnostic, category, substr string) {
	t.Helper()
	for _, d := range ds {
		if d.Category == category && strings.Contains(d.Message, substr) {
			return
		}
	}
	t.Errorf("missing %s diagnostic containing %q in %v", category, substr, ds)
}

func TestConflictFixture(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "crcw_conflict.gca"))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := VerifySource(string(src), Options{N: 4})
	if err != nil {
		t.Fatalf("VerifySource: %v", err)
	}
	if got := categories(ds)[CatCRCW]; got != 2 {
		t.Errorf("CRCW diagnostics = %d, want 2 (pointer + data)", got)
	}
	wantDiag(t, ds, CatCRCW, "pointer operations")
	wantDiag(t, ds, CatCRCW, "data operations")
	wantDiag(t, ds, CatRegister, `unknown register "missing"`)
	wantDiag(t, ds, CatRegister, "pow2(99)")
	wantDiag(t, ds, CatSchedule, `undeclared generation "ghost"`)
	wantDiag(t, ds, CatUnreachable, `"orphan"`)

	// The same program must be rejected by the compiler: the verifier
	// reports what Compile refuses.
	if _, err := gcasm.Parse(string(src)); err == nil {
		t.Error("Parse accepted the CRCW-conflicting fixture")
	}
}

func TestDiagnosticsSortedByLine(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "crcw_conflict.gca"))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := VerifySource(string(src), Options{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ds); i++ {
		if ds[i].Line < ds[i-1].Line {
			t.Fatalf("diagnostics not sorted by line: %v", ds)
		}
	}
}

func TestPointerRangeCheck(t *testing.T) {
	const src = `
gen walk:
    p = index + n
    d <- dstar

start walk
`
	ds, err := VerifySource(src, Options{N: 4, Cells: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantDiag(t, ds, CatRange, "pointer resolves to")

	// The guarded version of the same walk stays inside the field, so
	// the finding disappears.
	const guarded = `
gen walk:
    p = if index + n < 2 * n then index + n else none
    d <- dstar

start walk
`
	ds, err = VerifySource(guarded, Options{N: 4, Cells: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 0 {
		t.Errorf("in-range program produced diagnostics: %v", ds)
	}
}

func TestNegativePointerFlaggedWithoutCellContract(t *testing.T) {
	const src = `
gen back:
    p = 0 - 1 - index
    d <- dstar

start back
`
	// Cells unset: the upper bound is unknown but negative pointers are
	// still statically wrong.
	ds, err := VerifySource(src, Options{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantDiag(t, ds, CatRange, "pointer resolves to")
}

func TestDataNoneCheck(t *testing.T) {
	const src = `
gen bad:
    d <- if row == 0 then none else d

start bad
`
	ds, err := VerifySource(src, Options{N: 4, Cells: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantDiag(t, ds, CatRange, "data operation produces 'none'")
}

func TestDstarInPointerFlagged(t *testing.T) {
	const src = `
gen leak:
    p = dstar
    d <- d

start leak
`
	ds, err := VerifySource(src, Options{N: 4, Cells: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantDiag(t, ds, CatRegister, "dstar")
}

func TestNoScheduleFlagged(t *testing.T) {
	ds, err := VerifySource("gen lone:\n    d <- d\n", Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantDiag(t, ds, CatSchedule, "no schedule")
	wantDiag(t, ds, CatUnreachable, `"lone"`)
}

// TestAbstractMatchesRuntime drives both the abstract evaluator and the
// compiled runtime over data-independent expressions at every cell and
// checks they agree — the soundness contract evalAbs mirrors ast.go by.
func TestAbstractMatchesRuntime(t *testing.T) {
	exprs := []string{
		"col * n",
		"if row == n then none else n*n + row",
		"if row == n or col + pow2(sub) >= n then none else index + pow2(sub)",
		"let h = n / 2 in if col < h then index + h else none",
		"min(row, col) + max(1, sub) + abs(0 - col)",
		"not (row == 0) and col != 0 or n >= 100",
		"(index + 1) % n + n / (col + 1)",
	}
	const n, cells = 5, 30 // n·(n+1)
	for _, expr := range exprs {
		src := "gen probe times log:\n    p = " + expr + "\n\nstart probe\n"
		ast := mustParseAST(t, src)
		prog, err := gcasm.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		for sub := 0; sub < 3; sub++ {
			for idx := 0; idx < cells; idx++ {
				got := evalAbs(ast.Gens[0].Pointers[0].Expr, newAbsEnv(idx, n, sub))
				if !got.known {
					t.Errorf("%s: cell %d sub %d: abstract value unknown for data-independent expression", expr, idx, sub)
					continue
				}
				want := gcasm.EvalPointer(prog, 0, idx, n, sub)
				if got.v != want {
					t.Errorf("%s: cell %d sub %d: abstract %d, runtime %d", expr, idx, sub, got.v, want)
				}
			}
		}
	}
}

// ReadBounds statically bounds per-generation read congestion for a
// field of cells cells at problem size n, one Bound per declared
// generation in order. A cell contributes one read per sub-generation
// unless its pointer is statically 'none' (or the generation has no
// pointer operation at all). Generations with conflicting duplicate
// clauses are bounded by their first pointer clause.
func ReadBounds(p *gcasm.ProgramAST, n, cells int) []Bound {
	bounds := make([]Bound, 0, len(p.Gens))
	for _, g := range p.Gens {
		b := Bound{Gen: g.Name, Exact: true}
		if len(g.Pointers) > 0 {
			times := g.Times.Resolve(n)
			for sub := 0; sub < times; sub++ {
				for idx := 0; idx < cells; idx++ {
					v := evalAbs(g.Pointers[0].Expr, newAbsEnv(idx, n, sub))
					if !v.known {
						b.Exact = false
					}
					if !v.isNone() {
						b.Reads++
					}
				}
			}
		}
		bounds = append(bounds, b)
	}
	return bounds
}

// Bound is the static read-congestion bound of one generation: the total
// number of global reads across its sub-generations within one
// iteration, summed over the field — the quantity
// congestion.ReadsOracle tabulates from Table 1.
type Bound struct {
	Gen   string `json:"gen"`
	Reads int    `json:"reads"`
	// Exact reports whether every cell's pointer resolved statically:
	// true means Reads is the count for every input graph, false means
	// Reads is a worst-case upper bound (some cell's read depends on
	// data, and is counted as happening).
	Exact bool `json:"exact"`
}
