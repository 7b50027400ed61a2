package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// Unused reports package-level funcs, types, vars, consts and methods
// under internal/ and cmd/ that nothing consumes. A consumer is a
// reference from any non-test file the loader reaches (the whole module,
// examples included, plus nested modules such as bench/ that import it
// through a replace directive), or a mention in the test files of
// another package that imports the declaring one: by qualified name
// (pkg.Name), or by selector name (.Name) for methods. A declaration
// only its own package's tests use belongs in a _test.go file.
//
// Never reported: main and init, and methods of a type that implements
// an interface declaring them (they may be called through it). A
// reference through a generic instantiation counts for the generic
// declaration; a declaration's references to itself do not count.
//
// The check needs every package of the module at once, so it reports
// only under Check; run over a single package it finds nothing.
var Unused = &Analyzer{
	Name: "unused",
	Doc: "no dead code: package-level funcs, types, vars, consts and methods under internal/ " +
		"and cmd/ need a consumer outside their own package's tests",
	Run: runUnused,
}

// refIndex is the module-wide reference index the unused analyzer
// reads. Check builds it while loading the packages.
type refIndex struct {
	root string
	// used holds every object a non-test file references, generic
	// instantiations mapped back to their origin.
	used map[types.Object]bool
	// quals maps "importpath.Name" to the directories whose test files
	// name it, sels does the same for selector names, and idents for
	// every identifier. testImports maps a directory to the import paths
	// of its test files.
	quals, sels, idents, testImports map[string]map[string]bool
	// ifaces lists, by method name, every interface in the packages
	// loaded and everything they import.
	ifaces      map[string][]*types.Interface
	seenIfaces  map[*types.Interface]bool
	seenImports map[*types.Package]bool
}

func newRefIndex(root string) *refIndex {
	r := &refIndex{
		root:        root,
		used:        make(map[types.Object]bool),
		quals:       make(map[string]map[string]bool),
		sels:        make(map[string]map[string]bool),
		idents:      make(map[string]map[string]bool),
		testImports: make(map[string]map[string]bool),
		ifaces:      make(map[string][]*types.Interface),
		seenIfaces:  make(map[*types.Interface]bool),
		seenImports: make(map[*types.Package]bool),
	}
	r.addInterface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	return r
}

// add indexes one loaded package: the references of its non-test files,
// the names its test files mention, and the interfaces it can see.
func (r *refIndex) add(pkg *Package) error {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			r.addDecl(pkg.Info, decl)
		}
	}
	for _, tv := range pkg.Info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok {
			r.addInterface(it)
		}
	}
	r.addScope(pkg.Types)
	return r.addTests(pkg.Dir)
}

// addDecl records the references of one top-level declaration, minus
// those of a func or type to itself (a var or const cannot refer to
// itself). A method's receiver is not recorded, so a type whose only
// mentions are its own methods' receivers stays unused.
func (r *refIndex) addDecl(info *types.Info, decl ast.Decl) {
	record := func(self types.Object, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := origin(info.Uses[id]); obj != nil && obj != self {
					r.used[obj] = true
				}
			}
			return true
		})
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		record(info.Defs[d.Name], d.Type)
		if d.Body != nil {
			record(info.Defs[d.Name], d.Body)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			var self types.Object
			if ts, ok := spec.(*ast.TypeSpec); ok {
				self = info.Defs[ts.Name]
			}
			record(self, spec)
		}
	}
}

// origin maps an instantiated generic func or field back to the object
// its declaration defines.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// addScope collects the named interfaces of pkg and, transitively, of
// everything it imports, standard library included: fmt.Stringer,
// http.Handler, sort.Interface and friends call methods nothing names.
func (r *refIndex) addScope(pkg *types.Package) {
	if r.seenImports[pkg] {
		return
	}
	r.seenImports[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				r.addInterface(it)
			}
		}
	}
	for _, imp := range pkg.Imports() {
		r.addScope(imp)
	}
}

func (r *refIndex) addInterface(it *types.Interface) {
	if r.seenIfaces[it] {
		return
	}
	r.seenIfaces[it] = true
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		r.ifaces[name] = append(r.ifaces[name], it)
	}
}

// implements reports whether method fn is part of some interface its
// receiver type satisfies, and so may be called through it.
func (r *refIndex) implements(fn *types.Func, recv types.Type) bool {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, it := range r.ifaces[fn.Name()] {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

// addTests records, syntactically, the qualified identifiers and
// selector names the test files of dir mention.
func (r *refIndex) addTests(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imports := make(map[string]string)
		for _, spec := range f.Imports {
			path := strings.Trim(spec.Path.Value, `"`)
			name := filepath.Base(path)
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = path
			addDir(r.testImports, dir, path)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				addDir(r.idents, n.Name, dir)
			case *ast.SelectorExpr:
				addDir(r.sels, n.Sel.Name, dir)
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					addDir(r.quals, imports[x.Name]+"."+n.Sel.Name, dir)
				}
			}
			return true
		})
	}
	return nil
}

func addDir(m map[string]map[string]bool, key, dir string) {
	if m[key] == nil {
		m[key] = make(map[string]bool)
	}
	m[key][dir] = true
}

func runUnused(pass *Pass) {
	r := pass.refs
	if r == nil {
		return
	}
	rel, err := filepath.Rel(r.root, pass.Pkg.Dir)
	if err != nil {
		return
	}
	rel = filepath.ToSlash(rel)
	if !strings.HasPrefix(rel, "internal/") && !strings.HasPrefix(rel, "cmd/") {
		return
	}
	info := pass.Pkg.Info
	check := func(id *ast.Ident, kind string) {
		obj := info.Defs[id]
		if obj == nil || id.Name == "_" || r.used[obj] {
			return
		}
		name, others := id.Name, r.quals[pass.Pkg.Path+"."+id.Name]
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if r.implements(fn, recv.Type()) {
					return
				}
				name = recvName(recv.Type()) + "." + id.Name
				others = r.sels[id.Name]
			}
		}
		for dir := range others {
			if dir != pass.Pkg.Dir && r.testImports[dir][pass.Pkg.Path] {
				return
			}
		}
		if r.idents[id.Name][pass.Pkg.Dir] {
			pass.Reportf(id.Pos(), "test-only", "%s %s is used only by its own package's tests; move it into a _test.go file", kind, name)
			return
		}
		pass.Reportf(id.Pos(), "unused", "%s %s is unused", kind, name)
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && (d.Name.Name == "main" || d.Name.Name == "init") {
					continue
				}
				kind := "func"
				if d.Recv != nil {
					kind = "method"
				}
				check(d.Name, kind)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						check(s.Name, "type")
					case *ast.ValueSpec:
						for _, name := range s.Names {
							check(name, d.Tok.String())
						}
					}
				}
			}
		}
	}
}

// recvName names a method's receiver type for diagnostics, without
// pointer or type parameters.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return types.TypeString(t, nil)
}
