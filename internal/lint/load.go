package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one typechecked, non-test package: the unit every Analyzer
// runs over. Files holds the parsed syntax (with comments, which the
// //lint:ignore machinery needs), Types and Info the go/types results.
type Package struct {
	Path  string // import path ("gcacc/internal/gca")
	Name  string // package name ("gca")
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and typechecks packages of one module using only the
// standard library: go/parser for syntax, go/types for checking, and the
// go/importer source importer for standard-library dependencies.
// Module-local imports are resolved by the loader itself, recursively,
// straight from source — no export data, no x/tools.
type Loader struct {
	Root   string // absolute module root (directory holding go.mod)
	Module string // module path from go.mod

	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*pkgEntry
}

type pkgEntry struct {
	pkg     *Package
	err     error
	loading bool
}

// NewLoader returns a loader rooted at dir (which must contain go.mod).
func NewLoader(dir string) (*Loader, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: not a module root: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(mod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	// The source importer typechecks standard-library dependencies from
	// GOROOT source. With cgo enabled, packages like net would select
	// their cgo variants, which the importer cannot process; the pure-Go
	// fallbacks typecheck identically for linting purposes.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Root:   root,
		Module: modPath,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   make(map[string]*pkgEntry),
	}, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.Root, 0)
}

// ImportFrom implements types.ImporterFrom: module-local paths are
// loaded from source by this loader, everything else is delegated to the
// standard-library source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if rel, ok := l.moduleRel(path); ok {
		pkg, err := l.load(filepath.Join(l.Root, rel), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if from, ok := l.std.(types.ImporterFrom); ok {
		return from.ImportFrom(path, dir, mode)
	}
	return l.std.Import(path)
}

// moduleRel maps a module-local import path to a root-relative directory.
func (l *Loader) moduleRel(path string) (string, bool) {
	if path == l.Module {
		return ".", true
	}
	if rest, ok := strings.CutPrefix(path, l.Module+"/"); ok {
		return filepath.FromSlash(rest), true
	}
	return "", false
}

// Load typechecks the package with the given module import path.
func (l *Loader) Load(path string) (*Package, error) {
	rel, ok := l.moduleRel(path)
	if !ok {
		return nil, fmt.Errorf("lint: %q is not a package of module %s", path, l.Module)
	}
	return l.load(filepath.Join(l.Root, rel), path)
}

func (l *Loader) load(dir, path string) (*Package, error) {
	if e, ok := l.pkgs[path]; ok {
		if e.loading {
			return nil, fmt.Errorf("lint: import cycle through %q", path)
		}
		return e.pkg, e.err
	}
	entry := &pkgEntry{loading: true}
	l.pkgs[path] = entry
	entry.pkg, entry.err = l.loadUncached(dir, path)
	entry.loading = false
	return entry.pkg, entry.err
}

func (l *Loader) loadUncached(dir, path string) (*Package, error) {
	names, err := sourceFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	return &Package{
		Path:  path,
		Name:  tpkg.Name(),
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// sourceFiles lists the non-test Go files of dir in sorted order,
// skipping hidden and underscore-prefixed files like the go tool does.
func sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// ModulePackages walks the module tree and returns the import path of
// every package that has at least one non-test Go file, in sorted order.
// testdata, hidden and underscore-prefixed directories are skipped.
func (l *Loader) ModulePackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.Root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.Root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		files, err := sourceFiles(p)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.Root, p)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, l.Module)
		} else {
			paths = append(paths, l.Module+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
