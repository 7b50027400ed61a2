package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolClose makes the Close-path audit permanent: every value obtained
// from a constructor whose result type has a Close/close method — any
// named type from an engine or serving package, such as service.Service,
// which owns its job workers — must be paired with a Close on every path
// of the creating function. Engine shards run on the process-global pool
// of internal/par, which lives as long as the process and has no Close,
// so nothing that steps on it is tracked for that reason.
//
// A creation is accounted for when the binding either
//
//   - closes: `defer x.Close()` (preferred) or an explicit x.Close()
//     call, with no return statement between the creation and the
//     close — an early return in that window leaks the pool's
//     goroutines; or
//   - escapes: the value is returned, stored into a field, slice, map
//     or composite literal, sent on a channel, or passed to another
//     function — ownership (and the Close obligation) moves with it.
//
// Constructor results that are never bound to a local (returned
// directly, stored straight into a struct field) escape by construction
// and are not checked here; the receiving code owns them.
var PoolClose = &Analyzer{
	Name: "poolclose",
	Doc: "values from constructors returning a Close-owning engine/serving type " +
		"(service.Service, …) must be paired with defer Close/explicit Close " +
		"on every path, unless ownership escapes (returned, stored, passed on); the shared " +
		"fan-out pool (internal/par) is process-global and has no Close",
	Run: runPoolClose,
}

// closeWatchedPackages are the package names whose Close-owning types
// the analyzer tracks: the simulator engines plus the serving tier.
// Matching by package name keeps fixtures checked like the real tree.
func closeWatchedPackages() map[string]bool {
	watched := map[string]bool{"service": true, "stream": true}
	for name := range simulatorPackages {
		watched[name] = true
	}
	return watched
}

func runPoolClose(pass *Pass) {
	info := pass.Pkg.Info
	watched := closeWatchedPackages()

	for _, fd := range funcDecls(pass.Pkg) {
		var creations []poolCreation
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Tok != token.DEFINE || len(as.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok || !isCloserConstructor(info, call, watched) {
				return true
			}
			// Multi-value forms (x, err := New(...)) bind the closer
			// first by the repo's convention; find the ident whose type
			// owns Close.
			for _, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := info.Defs[id]
				if obj == nil || closeMethodName(obj.Type(), watched) == "" {
					continue
				}
				creations = append(creations, poolCreation{
					obj:  obj,
					name: id.Name,
					pos:  as.End(),
				})
			}
			return true
		})
		for _, c := range creations {
			auditCreation(pass, info, fd, c)
		}
	}
}

type poolCreation struct {
	obj  types.Object
	name string
	pos  token.Pos // end of the creating statement
}

// auditCreation checks one local binding of a closer for a Close pairing
// or an ownership escape, and reports the leak otherwise.
func auditCreation(pass *Pass, info *types.Info, fd *ast.FuncDecl, c poolCreation) {
	var (
		closePos token.Pos // earliest defer/explicit close
		escapes  bool
	)
	isC := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && info.Uses[id] == c.obj
	}
	// closeCallOn reports whether call is c.Close()/c.close().
	closeCallOn := func(call *ast.CallExpr) bool {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !isC(sel.X) {
			return false
		}
		return sel.Sel.Name == "Close" || sel.Sel.Name == "close"
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if closeCallOn(n.Call) && (closePos == token.NoPos || n.Pos() < closePos) {
				closePos = n.Pos()
			}
		case *ast.CallExpr:
			if closeCallOn(n) {
				if closePos == token.NoPos || n.Pos() < closePos {
					closePos = n.Pos()
				}
				return true
			}
			for _, arg := range n.Args {
				if isC(arg) {
					escapes = true // ownership handed to the callee
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if isC(r) {
					escapes = true
				}
			}
		case *ast.AssignStmt:
			// Storing into a field/slice/map element transfers
			// ownership; rebinding to another local does not.
			for i, rhs := range n.Rhs {
				if !isC(rhs) {
					continue
				}
				if i < len(n.Lhs) {
					if _, isIdent := ast.Unparen(n.Lhs[i]).(*ast.Ident); !isIdent {
						escapes = true
					}
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if isC(elt) {
					escapes = true
				}
			}
		case *ast.SendStmt:
			if isC(n.Value) {
				escapes = true
			}
		}
		return true
	})

	if escapes {
		return
	}
	if closePos == token.NoPos {
		pass.Reportf(c.pos, "unclosed",
			"%s creates %q but never closes it and it does not escape; its worker goroutines leak — add `defer %s.Close()` right after the creation",
			fd.Name.Name, c.name, c.name)
		return
	}
	// A return between creation and the (first) close leaks on that
	// path: the deferred close is not yet registered, the explicit close
	// not yet reached.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || ret.Pos() <= c.pos || ret.Pos() >= closePos {
			return true
		}
		pass.Reportf(ret.Pos(), "early-return-leak",
			"%s returns between creating %q and closing it; this path leaks the worker goroutines — move the Close (or defer) directly after the creation",
			fd.Name.Name, c.name)
		return true
	})
}

// isCloserConstructor reports whether call returns at least one named
// type (possibly behind a pointer) from a watched package that has a
// Close or close method.
func isCloserConstructor(info *types.Info, call *ast.CallExpr, watched map[string]bool) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if closeMethodName(sig.Results().At(i).Type(), watched) != "" {
			return true
		}
	}
	return false
}

// closeMethodName returns "Close"/"close" when t (possibly behind a
// pointer) is a named type from a watched package with such a method,
// else "".
func closeMethodName(t types.Type, watched map[string]bool) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !watched[obj.Pkg().Name()] {
		return ""
	}
	for i := 0; i < named.NumMethods(); i++ {
		switch named.Method(i).Name() {
		case "Close", "close":
			return named.Method(i).Name()
		}
	}
	return ""
}
