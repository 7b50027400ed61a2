package lint

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// newTestLoader roots a loader at the module root (two levels up).
func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := NewLoader("../..")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return l
}

// LoadDir typechecks the package in dir under an arbitrary import path,
// for the fixture packages under testdata, which the go tool does not
// treat as part of the module.
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	return l.load(dir, asPath)
}

var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// wantKey identifies one fixture line that expects diagnostics.
type wantKey struct {
	file string
	line int
}

// checkFixture typechecks the fixture package in dir, runs the full
// analyzer suite, and matches the diagnostics one-to-one against the
// `// want "substr"` comments in the fixture sources.
func checkFixture(t *testing.T, l *Loader, dir string) {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(abs, "fixture/"+filepath.ToSlash(dir))
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	wants := map[wantKey][]string{}
	addWants(wants, pkg)
	matchWants(t, runAnalyzers(pkg, nil, Analyzers()), wants)
}

// addWants collects the `// want "substr"` comments of pkg.
func addWants(wants map[wantKey][]string, pkg *Package) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := wantKey{pos.Filename, pos.Line}
				wants[k] = append(wants[k], m[1])
			}
		}
	}
}

// matchWants pairs each diagnostic with a want comment on its line and
// reports the diagnostics and wants left over.
func matchWants(t *testing.T, diags []Diagnostic, wants map[wantKey][]string) {
	t.Helper()
	for _, d := range diags {
		k := wantKey{d.Pos.Filename, d.Pos.Line}
		matched := false
		for i, substr := range wants[k] {
			if strings.Contains(d.Message, substr) {
				wants[k] = append(wants[k][:i], wants[k][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, rest := range wants {
		for _, substr := range rest {
			t.Errorf("%s:%d: expected a diagnostic containing %q, got none", k.file, k.line, substr)
		}
	}
}

// checkModuleFixture runs Check with the full suite over the fixture
// module rooted at dir, which the unused analyzer needs whole, and
// matches the diagnostics against its want comments.
func checkModuleFixture(t *testing.T, dir string) {
	t.Helper()
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags, _, err := Check(l, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	wants := map[wantKey][]string{}
	for _, path := range paths {
		pkg, err := l.Load(path) // cached by Check
		if err != nil {
			t.Fatal(err)
		}
		addWants(wants, pkg)
	}
	matchWants(t, diags, wants)
}

// TestUnusedFixtures checks the unused analyzer on two fixture modules.
// bad has one unconsumed func, type, const, var and method, a func that
// only refers to itself and one only its own package's tests use. clean
// has an interface-satisfying method, a generic method used through an
// instantiation, declarations used only by another package's tests, and
// one used only by a nested module, like bench/; it must produce nothing.
func TestUnusedFixtures(t *testing.T) {
	for _, dir := range []string{"testdata/unused/bad", "testdata/unused/clean"} {
		t.Run(strings.TrimPrefix(dir, "testdata/"), func(t *testing.T) {
			checkModuleFixture(t, dir)
		})
	}
}

func TestFixtures(t *testing.T) {
	l := newTestLoader(t)
	dirs := []string{
		"testdata/src/bufferdiscipline/bad",
		"testdata/src/bufferdiscipline/clean",
		"testdata/src/bufferdiscipline/sparse",
		"testdata/src/atomicdiscipline/bad",
		"testdata/src/atomicdiscipline/clean",
		"testdata/src/poolclose/bad",
		"testdata/src/poolclose/clean",
		"testdata/src/lockorder/bad",
		"testdata/src/lockorder/clean",
		"testdata/src/determinism/bad",
		"testdata/src/determinism/clean",
		"testdata/src/ctxflow/bad",
		"testdata/src/ctxflow/clean",
		"testdata/src/muguard/bad",
		"testdata/src/muguard/clean",
		"testdata/src/errcheck/bad",
		"testdata/src/errcheck/clean",
		"testdata/src/ignore",
	}
	for _, dir := range dirs {
		dir := dir
		t.Run(strings.TrimPrefix(dir, "testdata/src/"), func(t *testing.T) {
			checkFixture(t, l, dir)
		})
	}
}

// TestCleanFixturesProduceNothing makes the zero-diagnostic expectation
// of the clean fixtures explicit, independent of the want-comment
// matching above.
func TestCleanFixturesProduceNothing(t *testing.T) {
	l := newTestLoader(t)
	for _, dir := range []string{
		"testdata/src/bufferdiscipline/clean",
		"testdata/src/determinism/clean",
		"testdata/src/ctxflow/clean",
		"testdata/src/muguard/clean",
		"testdata/src/errcheck/clean",
		"testdata/src/atomicdiscipline/clean",
		"testdata/src/poolclose/clean",
		"testdata/src/lockorder/clean",
	} {
		abs, _ := filepath.Abs(dir)
		pkg, err := l.LoadDir(abs, "fixture/"+filepath.ToSlash(dir))
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		if diags := runAnalyzers(pkg, nil, Analyzers()); len(diags) != 0 {
			for _, d := range diags {
				t.Errorf("%s: unexpected diagnostic: %s", dir, d)
			}
		}
	}
}

// TestIgnoreSuppressesExactlyOne proves a //lint:ignore directive eats a
// single diagnostic: the fixture has three identical violations, two of
// them annotated, so exactly one must survive.
func TestIgnoreSuppressesExactlyOne(t *testing.T) {
	l := newTestLoader(t)
	abs, _ := filepath.Abs("testdata/src/ignore")
	pkg, err := l.LoadDir(abs, "fixture/ignore")
	if err != nil {
		t.Fatal(err)
	}
	diags := runAnalyzers(pkg, nil, []*Analyzer{ErrcheckLite})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly 1: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "fail discards its error") {
		t.Errorf("surviving diagnostic is wrong: %s", diags[0])
	}
	// The surviving one must be the unannotated call in Reported.
	raw := 0
	run := func() {
		var tmp []Diagnostic
		pass := &Pass{Pkg: pkg, analyzer: ErrcheckLite, diags: &tmp}
		ErrcheckLite.Run(pass)
		raw = len(tmp)
	}
	run()
	if raw != 3 {
		t.Fatalf("fixture drifted: analyzer found %d raw violations, want 3", raw)
	}
}

// TestMalformedIgnoreIsError proves a reasonless (or analyzer-less)
// directive suppresses nothing and surfaces as its own diagnostic.
func TestMalformedIgnoreIsError(t *testing.T) {
	l := newTestLoader(t)
	abs, _ := filepath.Abs("testdata/src/ignorebad")
	pkg, err := l.LoadDir(abs, "fixture/ignorebad")
	if err != nil {
		t.Fatal(err)
	}
	diags := runAnalyzers(pkg, nil, []*Analyzer{ErrcheckLite})
	byCat := map[string]int{}
	for _, d := range diags {
		byCat[d.Analyzer+"/"+d.Category]++
	}
	if byCat["ignore/missing-reason"] != 1 {
		t.Errorf("missing-reason diagnostics = %d, want 1: %v", byCat["ignore/missing-reason"], diags)
	}
	if byCat["ignore/malformed"] != 1 {
		t.Errorf("malformed diagnostics = %d, want 1: %v", byCat["ignore/malformed"], diags)
	}
	// The reasonless directive must NOT have eaten the errcheck finding.
	if byCat["errcheck/discarded"]+byCat["errcheck/discarded-defer"]+byCat["errcheck/discarded-go"] == 0 {
		found := false
		for _, d := range diags {
			if d.Analyzer == "errcheck" {
				found = true
			}
		}
		if !found {
			t.Errorf("reasonless directive suppressed the errcheck diagnostic: %v", diags)
		}
	}
}

// TestSuppressionCountPinned audits every //lint:ignore in the module's
// non-test sources: each must carry a reason, and the total is pinned so
// adding a suppression is a deliberate, reviewed act — update the count
// here and justify the new directive in its reason text.
func TestSuppressionCountPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module; skipped in -short mode")
	}
	const pinnedSuppressions = 0
	l := newTestLoader(t)
	paths, err := l.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			t.Errorf("load %s: %v", path, err)
			continue
		}
		for _, s := range Suppressions(pkg) {
			total++
			if s.Analyzer == "" || s.Reason == "" {
				t.Errorf("%s: malformed //lint:ignore (analyzer %q, reason %q)", s.Pos, s.Analyzer, s.Reason)
			}
		}
	}
	if total != pinnedSuppressions {
		t.Errorf("module has %d //lint:ignore directives, pinned count is %d; if the new suppression is justified, update the pin",
			total, pinnedSuppressions)
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != len(Analyzers()) {
		t.Fatalf("Select(\"\") = %d analyzers, err %v; want full suite", len(all), err)
	}
	two, err := Select("determinism, errcheck")
	if err != nil || len(two) != 2 || two[0].Name != "determinism" || two[1].Name != "errcheck" {
		t.Fatalf("Select(determinism,errcheck) = %v, err %v", two, err)
	}
	if _, err := Select("nosuch"); err == nil {
		t.Fatal("Select(nosuch) should fail")
	}
	if _, err := Select(" , "); err == nil {
		t.Fatal("Select of only separators should fail")
	}
}

func TestDiagnosticJSONRoundTrip(t *testing.T) {
	l := newTestLoader(t)
	abs, _ := filepath.Abs("testdata/src/errcheck/bad")
	pkg, err := l.LoadDir(abs, "fixture/errcheck-json")
	if err != nil {
		t.Fatal(err)
	}
	diags := runAnalyzers(pkg, nil, []*Analyzer{ErrcheckLite})
	if len(diags) == 0 {
		t.Fatal("fixture produced no diagnostics")
	}
	data, err := json.Marshal(diags)
	if err != nil {
		t.Fatal(err)
	}
	var back []Diagnostic
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(diags, back) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", back, diags)
	}
	for _, d := range back {
		if d.Analyzer == "" || d.Message == "" || d.Pos.Filename == "" || d.Pos.Line == 0 {
			t.Errorf("lossy encoding: %+v", d)
		}
	}
}

// TestRepositoryIsClean runs the full suite over every package of the
// module: the tree must stay lint-clean, which is also what `make lint`
// enforces in CI.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module; skipped in -short mode")
	}
	diags, npkgs, err := Check(newTestLoader(t), Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	if npkgs < 10 {
		t.Fatalf("suspiciously few packages checked: %d", npkgs)
	}
	for _, d := range diags {
		t.Error(d)
	}
}

// TestAnalyzerMetadata keeps names unique and docs present — the CLI's
// -list and -analyzers flags depend on both.
func TestAnalyzerMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("incomplete analyzer: %+v", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Name != strings.ToLower(a.Name) || strings.ContainsAny(a.Name, " ,") {
			t.Errorf("analyzer name %q is not a flat lowercase word", a.Name)
		}
	}
}

// TestLoaderRejectsNonModule pins the error path the CLI reports as exit
// code 2.
func TestLoaderRejectsNonModule(t *testing.T) {
	if _, err := NewLoader(t.TempDir()); err == nil {
		t.Fatal("NewLoader on a bare directory should fail")
	}
}

func ExampleDiagnostic_String() {
	d := Diagnostic{Analyzer: "determinism", Category: "map-order", Message: "append inside a range over a map"}
	d.Pos.Filename = "x.go"
	d.Pos.Line = 3
	d.Pos.Column = 2
	fmt.Println(d.String())
	// Output: x.go:3:2: [determinism/map-order] append inside a range over a map
}
