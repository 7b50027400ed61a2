// Package lint is a stdlib-only static-analysis engine that enforces the
// repository's GCA/PRAM model invariants and concurrency hygiene before
// any test runs. It is built on go/parser, go/ast and go/types alone — no
// golang.org/x/tools dependency — with a pluggable Analyzer interface and
// a module-aware package loader (see Loader).
//
// The dynamic checks of internal/verify prove that a particular run
// respected the model; the analyzers here reject whole classes of
// violations at compile time: reading the wrong double-buffer half,
// nondeterminism inside the simulator packages, step loops that cannot be
// cancelled, unlocked access to mutex-guarded serving-layer state,
// silently discarded errors, and code nothing runs.
//
// A diagnostic can be suppressed with an ignore directive on the line
// immediately above (or trailing on the same line as) the flagged code:
//
//	//lint:ignore <analyzer> <reason>
//
// Each directive suppresses at most one diagnostic of the named analyzer,
// so a directive can never hide more than the violation it annotates. The
// reason is mandatory: a directive that names no analyzer or carries no
// reason suppresses nothing and is itself reported as a diagnostic, so
// every suppression in the tree documents why it is safe.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"
)

// An Analyzer is one named static check. Run inspects pass.Pkg and
// reports findings through pass.Reportf; it must not retain the pass.
type Analyzer struct {
	// Name identifies the analyzer in output, in the -analyzers flag of
	// cmd/gca-lint and in //lint:ignore directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run performs the check over one package.
	Run func(*Pass)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Category string         `json:"category"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s/%s] %s", d.Pos, d.Analyzer, d.Category, d.Message)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	// Pkg is the typechecked package under analysis.
	Pkg *Package

	// refs indexes the references of the whole module; nil when a
	// package is analysed on its own (see Check).
	refs     *refIndex
	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, category, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.analyzer.Name,
		Category: category,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full analyzer suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		BufferDiscipline,
		Determinism,
		CtxFlow,
		MuGuard,
		ErrcheckLite,
		AtomicDiscipline,
		PoolClose,
		LockOrder,
		Unused,
	}
}

// Select resolves a comma-separated list of analyzer names ("" selects
// the whole suite).
func Select(names string) ([]*Analyzer, error) {
	all := Analyzers()
	if strings.TrimSpace(names) == "" {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			known := make([]string, 0, len(all))
			for _, a := range all {
				known = append(known, a.Name)
			}
			return nil, fmt.Errorf("lint: unknown analyzer %q (known: %s)", name, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lint: empty analyzer selection %q", names)
	}
	return out, nil
}

// Check loads every package of the loader's module, indexing the
// module-wide references as it goes, then runs the analyzers over each
// package. It returns the diagnostics in package order and the number of
// packages checked.
func Check(l *Loader, analyzers []*Analyzer) ([]Diagnostic, int, error) {
	paths, err := l.ModulePackages()
	if err != nil {
		return nil, 0, err
	}
	refs := newRefIndex(l.Root)
	pkgs := make([]*Package, 0, len(paths))
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, 0, err
		}
		if err := refs.add(pkg); err != nil {
			return nil, 0, err
		}
		pkgs = append(pkgs, pkg)
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, runAnalyzers(pkg, refs, analyzers)...)
	}
	return diags, len(pkgs), nil
}

// runAnalyzers runs the given analyzers over one package and returns the
// surviving diagnostics sorted by position, with //lint:ignore directives
// applied. With refs nil, analyzers that need the whole module, like
// unused, report nothing.
func runAnalyzers(pkg *Package, refs *refIndex, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{Pkg: pkg, refs: refs, analyzer: a, diags: &diags})
	}
	diags = applyIgnores(pkg, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// Suppression is one parsed //lint:ignore directive. Reason is "" when
// the directive is malformed (no analyzer or no reason) — such a
// directive suppresses nothing and is reported as a diagnostic.
type Suppression struct {
	Analyzer string         `json:"analyzer"`
	Reason   string         `json:"reason"`
	Pos      token.Position `json:"pos"`
}

const ignorePrefix = "//lint:ignore"

// Suppressions returns every //lint:ignore directive in the package, in
// source order, malformed ones included. cmd/gca-lint's suppression
// audit and the count-pinning test are built on it.
func Suppressions(pkg *Package) []Suppression {
	var out []Suppression
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, ignorePrefix)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				name, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
				out = append(out, Suppression{
					Analyzer: name,
					Reason:   strings.TrimSpace(reason),
					Pos:      pkg.Fset.Position(c.Pos()),
				})
			}
		}
	}
	return out
}

// applyIgnores drops, for every well-formed //lint:ignore directive, at
// most one diagnostic of the named analyzer located on the directive's
// own line or the line directly below it. Malformed directives — no
// analyzer name, or no trailing reason — suppress nothing and are
// reported as diagnostics themselves.
func applyIgnores(pkg *Package, diags []Diagnostic) []Diagnostic {
	directives := Suppressions(pkg)
	for _, s := range directives {
		switch {
		case s.Analyzer == "":
			diags = append(diags, Diagnostic{
				Analyzer: "ignore",
				Category: "malformed",
				Pos:      s.Pos,
				Message:  "//lint:ignore names no analyzer; write `//lint:ignore <analyzer> <reason>`",
			})
		case s.Reason == "":
			diags = append(diags, Diagnostic{
				Analyzer: "ignore",
				Category: "missing-reason",
				Pos:      s.Pos,
				Message: fmt.Sprintf("//lint:ignore %s has no reason; every suppression must say why it is safe: `//lint:ignore %s <reason>`",
					s.Analyzer, s.Analyzer),
			})
		}
	}
	if len(directives) == 0 {
		return diags
	}
	// Stable position order so "at most one" is deterministic.
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	suppressed := make(map[int]bool)
	for _, dir := range directives {
		if dir.Analyzer == "" || dir.Reason == "" {
			continue // malformed: reported above, suppresses nothing
		}
		for i, d := range diags {
			if suppressed[i] || d.Analyzer != dir.Analyzer || d.Pos.Filename != dir.Pos.Filename {
				continue
			}
			if d.Pos.Line == dir.Pos.Line || d.Pos.Line == dir.Pos.Line+1 {
				suppressed[i] = true
				break
			}
		}
	}
	out := diags[:0]
	for i, d := range diags {
		if !suppressed[i] {
			out = append(out, d)
		}
	}
	return out
}

// exprString renders a (small) expression for diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[…]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(…)"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.BasicLit:
		return e.Value
	default:
		return strconv.Quote(fmt.Sprintf("%T", e))
	}
}
