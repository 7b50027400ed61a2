package lint

import (
	"go/ast"
	"go/types"
)

// BufferDiscipline enforces the double-buffer contract behind the GCA's
// synchronous semantics (DESIGN.md: generation g is a pure function of
// generation g−1):
//
//   - inside package gca, cell-stepping code must never write the
//     current-state buffer (Field.cur) or read elements of the next-state
//     buffer (Field.next); only the field's own initialisation API
//     (NewField, SetCell, SetData) and the commit point (swap) may touch
//     cur, and only swap may move next.
//   - in every simulator package, methods implementing the Rule contract
//     (Pointer, Update, Pointer2, Update2) must be pure over their
//     arguments: they must not reference a gca.Field at all, because any
//     field access from inside a rule bypasses the machine's
//     read-current/write-next discipline.
var BufferDiscipline = &Analyzer{
	Name: "bufferdiscipline",
	Doc: "cell rules must read generation g−1 and write generation g only: no writes " +
		"through Field.cur, no element reads of Field.next, no Field access from Rule methods, " +
		"and bulk kernels must read cur, write next only within their assigned [lo, hi) range, " +
		"and never alias either buffer",
	Run: runBufferDiscipline,
}

// curWriteAllowed are the gca functions allowed to mutate the current
// buffer: construction, generation-0 initialisation, and the one commit
// point, swap.
var curWriteAllowed = map[string]bool{
	"NewField": true,
	"SetCell":  true,
	"SetData":  true,
	"swap":     true,
}

var ruleMethodNames = map[string]bool{
	"Pointer":  true,
	"Update":   true,
	"Pointer2": true,
	"Update2":  true,
}

func runBufferDiscipline(pass *Pass) {
	if !simulatorPackages[pass.Pkg.Name] {
		return
	}
	if pass.Pkg.Name == "gca" {
		checkFieldBuffers(pass)
	}
	checkRulePurity(pass)
	checkKernelDiscipline(pass)
	checkLocalPlanes(pass)
}

// checkFieldBuffers audits every direct cur/next access inside package
// gca itself (the only package that can name the unexported buffers).
func checkFieldBuffers(pass *Pass) {
	info := pass.Pkg.Info
	curVar, nextVar := fieldBufferVars(pass.Pkg)
	if curVar == nil || nextVar == nil {
		return
	}

	for _, fd := range funcDecls(pass.Pkg) {
		name := fd.Name.Name

		// One-level alias tracking: `cur := m.field.cur` binds a local
		// whose element accesses carry the buffer's discipline.
		aliases := map[types.Object]*types.Var{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				v := bufferOf(info, aliases, rhs, curVar, nextVar)
				if v == nil {
					continue
				}
				if id, ok := as.Lhs[i].(*ast.Ident); ok {
					if obj := info.Defs[id]; obj != nil {
						aliases[obj] = v
					}
				}
			}
			return true
		})

		// Write targets: LHS roots of assignments and ++/--.
		writeTargets := map[ast.Expr]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					writeTargets[ast.Unparen(lhs)] = true
				}
			case *ast.IncDecStmt:
				writeTargets[ast.Unparen(n.X)] = true
			}
			return true
		})

		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					lhs = ast.Unparen(lhs)
					base := lhs
					if ix, ok := lhs.(*ast.IndexExpr); ok {
						base = ix.X
					}
					if bufferOf(info, aliases, base, curVar, nextVar) == curVar && !curWriteAllowed[name] {
						pass.Reportf(lhs.Pos(), "cur-write",
							"%s writes the current-state buffer via %s; step code must write only the next buffer (Field.%s API or swap)",
							name, exprString(lhs), "SetCell/SetData")
					}
				}
			case *ast.IndexExpr:
				if writeTargets[n] {
					return true
				}
				if bufferOf(info, aliases, n.X, curVar, nextVar) == nextVar {
					pass.Reportf(n.Pos(), "next-read",
						"%s reads an element of the next-state buffer via %s; generation g must read exclusively from generation g−1 (Field.cur)",
						name, exprString(n))
				}
			case *ast.RangeStmt:
				if bufferOf(info, aliases, n.X, curVar, nextVar) == nextVar {
					pass.Reportf(n.X.Pos(), "next-read",
						"%s ranges over the next-state buffer %s; generation g must read exclusively from generation g−1 (Field.cur)",
						name, exprString(n.X))
				}
			case *ast.CallExpr:
				if isScalarSafeBuiltin(info, n) {
					return true
				}
				// Invoking a bulk kernel is the sanctioned hand-off of
				// the raw buffers: the kernel body is itself audited by
				// checkKernelDiscipline.
				if isNamedType(info.TypeOf(n.Fun), "gca", "Kernel") {
					return true
				}
				if isBuiltin(info, n, "copy") && len(n.Args) == 2 {
					// copy(next, cur) is the sanctioned forward move;
					// moving data into cur or out of next is a commit,
					// which only swap may perform.
					if !curWriteAllowed[name] {
						if bufferOf(info, aliases, n.Args[0], curVar, nextVar) == curVar {
							pass.Reportf(n.Args[0].Pos(), "cur-write",
								"%s copies into the current-state buffer; only the commit point (swap) may move next into cur", name)
						}
						if bufferOf(info, aliases, n.Args[1], curVar, nextVar) == nextVar {
							pass.Reportf(n.Args[1].Pos(), "next-read",
								"%s copies out of the next-state buffer; generation g must read exclusively from generation g−1 (Field.cur)", name)
						}
					}
					return true
				}
				for _, arg := range n.Args {
					if bufferOf(info, aliases, arg, curVar, nextVar) == nextVar {
						pass.Reportf(arg.Pos(), "next-read",
							"%s passes the next-state buffer %s to %s, exposing uncommitted generation-g state",
							name, exprString(arg), exprString(n.Fun))
					}
				}
			}
			return true
		})
	}
}

// bufferOf resolves expr to the cur or next buffer variable it denotes —
// a direct selector on a Field, a tracked local alias, or a slice of
// either (f.next[lo:hi] carries the buffer's discipline just as f.next
// does) — or nil.
func bufferOf(info *types.Info, aliases map[types.Object]*types.Var, expr ast.Expr, curVar, nextVar *types.Var) *types.Var {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		switch info.Uses[e.Sel] {
		case curVar:
			return curVar
		case nextVar:
			return nextVar
		}
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return aliases[obj]
		}
	case *ast.SliceExpr:
		return bufferOf(info, aliases, e.X, curVar, nextVar)
	}
	return nil
}

// fieldBufferVars looks up the cur and next buffer fields of gca.Field.
func fieldBufferVars(pkg *Package) (cur, next *types.Var) {
	obj := pkg.Types.Scope().Lookup("Field")
	if obj == nil {
		return nil, nil
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	for i := 0; i < st.NumFields(); i++ {
		switch f := st.Field(i); f.Name() {
		case "cur":
			cur = f
		case "next":
			next = f
		}
	}
	return cur, next
}

// checkKernelDiscipline audits bulk-kernel bodies in every simulator
// package. A kernel is any function — declaration or literal — whose
// parameter list carries slice parameters named cur and next (the
// gca.Kernel contract). Inside one:
//
//   - cur is read-only: no element writes, no use as the copy destination;
//   - next is write-only: no element reads, no ranging, no use as a copy
//     source;
//   - neither buffer may be aliased: not rebound to a variable, returned,
//     or passed to another function (the copy/len/cap builtins excepted),
//     because an escaped buffer outlives the step that owns it;
//   - when the kernel carries int range parameters named lo/hi (the
//     gca.Kernel contract's assigned shard), every next write must be
//     indexed through a value derived from that range — other shards
//     write the rest of next concurrently, so an out-of-range write
//     would silently race them (kernel-range-write).
//
// A local bound to a sub-slice of either buffer (`src, dst := cur[lo:hi],
// next[lo:hi]`, the bounds-check-free loop idiom) is a window: element
// accesses, ranging, returns and calls through it carry its buffer's
// discipline. A window of next must be bound with both bounds derived
// from the range; writes through it may then use any index, since Go
// bounds-checks them against the window.
func checkKernelDiscipline(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var ft *ast.FuncType
			var body *ast.BlockStmt
			var where string
			switch fn := n.(type) {
			case *ast.FuncDecl:
				ft, body, where = fn.Type, fn.Body, fn.Name.Name
			case *ast.FuncLit:
				ft, body, where = fn.Type, fn.Body, "kernel literal"
			default:
				return true
			}
			if body == nil {
				return true
			}
			curObj, nextObj := kernelBufferParams(info, ft)
			if curObj == nil || nextObj == nil {
				return true
			}
			checkKernelBody(pass, info, body, where, curObj, nextObj, kernelRangeParams(info, ft))
			return true
		})
	}
}

// kernelBufferParams returns the parameter objects named cur and next
// when both are slice-typed, i.e. when the function has the kernel shape.
func kernelBufferParams(info *types.Info, ft *ast.FuncType) (cur, next types.Object) {
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			obj := info.Defs[name]
			if obj == nil {
				continue
			}
			if _, ok := obj.Type().Underlying().(*types.Slice); !ok {
				continue
			}
			switch name.Name {
			case "cur":
				cur = obj
			case "next":
				next = obj
			}
		}
	}
	return cur, next
}

// kernelRangeParams returns the int-typed parameter objects named lo or
// hi — the kernel's assigned active run. Single-cell kernels blank the
// upper bound (`lo, _ int`), so either name alone still seeds the
// range-write check; a cur/next function with neither (a whole-plane
// helper) is not range-checked.
func kernelRangeParams(info *types.Info, ft *ast.FuncType) []types.Object {
	var seeds []types.Object
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if name.Name != "lo" && name.Name != "hi" {
				continue
			}
			obj := info.Defs[name]
			if obj == nil {
				continue
			}
			if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
				seeds = append(seeds, obj)
			}
		}
	}
	return seeds
}

// rangeRooted computes the transitive closure of values derived from the
// kernel's [lo, hi) parameters: the parameters seed the set, and any
// variable whose assignment references a rooted value joins it, to a
// fixpoint — so incremental write cursors like
//
//	cn := (lo % n) * n
//	...
//	cn += n
//
// stay rooted across their whole lifetime.
func rangeRooted(info *types.Info, body *ast.BlockStmt, seeds []types.Object) map[types.Object]bool {
	rooted := map[types.Object]bool{}
	for _, s := range seeds {
		rooted[s] = true
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				if !refsAny(info, rhs, rooted) {
					continue
				}
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil && !rooted[obj] {
					rooted[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return rooted
}

// refsAny reports whether expr mentions any object in set.
func refsAny(info *types.Info, expr ast.Expr, set map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && set[obj] {
				found = true
			}
		}
		return true
	})
	return found
}

// checkKernelBody walks one kernel body enforcing the read-cur/write-next
// discipline over the raw buffer parameters, and — when rangeSeeds is
// non-empty — the active-range discipline over every next write.
func checkKernelBody(pass *Pass, info *types.Info, body *ast.BlockStmt, where string, curObj, nextObj types.Object, rangeSeeds []types.Object) {
	// windows maps each local bound to a sub-slice of a buffer (or of
	// another window) to that buffer.
	windows := map[types.Object]types.Object{}

	// paramOf resolves an expression to the buffer parameter it is rooted
	// in: the bare identifier or a window of it, an index, or a slice.
	paramOf := func(expr ast.Expr) types.Object {
		for {
			switch e := ast.Unparen(expr).(type) {
			case *ast.Ident:
				switch obj := info.Uses[e]; obj {
				case curObj:
					return curObj
				case nextObj:
					return nextObj
				default:
					return windows[obj]
				}
			case *ast.IndexExpr:
				expr = e.X
			case *ast.SliceExpr:
				expr = e.X
			default:
				return nil
			}
		}
	}
	isBare := func(expr ast.Expr) types.Object {
		if id, ok := ast.Unparen(expr).(*ast.Ident); ok {
			switch obj := info.Uses[id]; obj {
			case curObj:
				return curObj
			case nextObj:
				return nextObj
			default:
				return windows[obj]
			}
		}
		return nil
	}
	isWindow := func(expr ast.Expr) bool {
		id, ok := ast.Unparen(expr).(*ast.Ident)
		return ok && windows[info.Uses[id]] != nil
	}
	// windowBinding returns the buffer the i-th assignment of as binds a
	// window of, with the slice expression, or nil. Windows are bound
	// before use, so one pass in source order finds windows of windows.
	windowBinding := func(as *ast.AssignStmt, i int) (types.Object, *ast.SliceExpr) {
		se, isSlice := ast.Unparen(as.Rhs[i]).(*ast.SliceExpr)
		if _, isIdent := as.Lhs[i].(*ast.Ident); !isSlice || !isIdent {
			return nil, nil
		}
		return paramOf(se.X), se
	}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Rhs {
			if buf, _ := windowBinding(as, i); buf != nil {
				id := as.Lhs[i].(*ast.Ident)
				if obj := info.Defs[id]; obj != nil {
					windows[obj] = buf
				} else if obj := info.Uses[id]; obj != nil {
					windows[obj] = buf
				}
			}
		}
		return true
	})

	writeTargets := map[ast.Expr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				writeTargets[ast.Unparen(lhs)] = true
			}
		case *ast.IncDecStmt:
			writeTargets[ast.Unparen(n.X)] = true
		}
		return true
	})

	var rooted map[types.Object]bool
	if len(rangeSeeds) > 0 {
		rooted = rangeRooted(info, body, rangeSeeds)
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				lhs = ast.Unparen(lhs)
				base := lhs
				if ix, ok := lhs.(*ast.IndexExpr); ok {
					base = ix.X
					if rooted != nil && paramOf(ix.X) == nextObj && !isWindow(ix.X) && !refsAny(info, ix.Index, rooted) {
						pass.Reportf(lhs.Pos(), "kernel-range-write",
							"%s writes %s at an index not derived from the kernel's [lo, hi) range; kernels must write only the range the machine hands them",
							where, exprString(lhs))
					}
				}
				// Rebinding a window (`src = src[:n]`) writes no element.
				if paramOf(base) == curObj && !isWindow(lhs) {
					pass.Reportf(lhs.Pos(), "kernel-cur-write",
						"%s writes the current-generation buffer via %s; kernels must read cur and write only next",
						where, exprString(lhs))
				}
			}
			for i, rhs := range n.Rhs {
				if len(n.Lhs) == len(n.Rhs) && rooted != nil {
					if buf, se := windowBinding(n, i); buf == nextObj && (se.Low == nil || se.High == nil ||
						!refsAny(info, se.Low, rooted) || !refsAny(info, se.High, rooted)) {
						pass.Reportf(se.Pos(), "kernel-range-write",
							"%s binds a window of next with bounds not derived from the kernel's [lo, hi) range; kernels must write only the range the machine hands them",
							where)
					}
				}
				if obj := isBare(rhs); obj != nil {
					pass.Reportf(rhs.Pos(), "kernel-alias",
						"%s aliases the %s buffer into a variable; kernels must not retain the raw buffers beyond the call",
						where, obj.Name())
				}
			}
		case *ast.IndexExpr:
			if writeTargets[n] {
				return true
			}
			if paramOf(n.X) == nextObj {
				pass.Reportf(n.Pos(), "kernel-next-read",
					"%s reads an element of the next-generation buffer via %s; kernels must compute generation g from generation g−1 (cur) only",
					where, exprString(n))
			}
		case *ast.RangeStmt:
			// Ranging over a window of next for its indices alone reads
			// nothing.
			if isBare(n.X) == nextObj && (n.Value != nil || !isWindow(n.X)) {
				pass.Reportf(n.X.Pos(), "kernel-next-read",
					"%s ranges over the next-generation buffer; kernels must compute generation g from generation g−1 (cur) only",
					where)
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if obj := isBare(r); obj != nil {
					pass.Reportf(r.Pos(), "kernel-alias",
						"%s returns the %s buffer; kernels must not let the raw buffers escape the step",
						where, obj.Name())
				}
			}
		case *ast.CallExpr:
			if isScalarSafeBuiltin(info, n) {
				return true
			}
			if isBuiltin(info, n, "copy") && len(n.Args) == 2 {
				// copy(next[...], cur[...]) is the sanctioned bulk move;
				// cur as the destination or next as the source inverts
				// the buffer roles.
				if paramOf(n.Args[0]) == curObj {
					pass.Reportf(n.Args[0].Pos(), "kernel-cur-write",
						"%s copies into the current-generation buffer; kernels must read cur and write only next", where)
				} else if rooted != nil && paramOf(n.Args[0]) == nextObj && !isWindow(n.Args[0]) {
					// The destination must be an explicitly-bounded slice
					// of next, both bounds derived from the range: a bare
					// or half-open destination writes past the run.
					se, isSlice := ast.Unparen(n.Args[0]).(*ast.SliceExpr)
					if !isSlice || se.Low == nil || se.High == nil ||
						!refsAny(info, se.Low, rooted) || !refsAny(info, se.High, rooted) {
						pass.Reportf(n.Args[0].Pos(), "kernel-range-write",
							"%s copies into next with bounds not derived from the kernel's [lo, hi) range; kernels must write only the range the machine hands them", where)
					}
				}
				if paramOf(n.Args[1]) == nextObj {
					pass.Reportf(n.Args[1].Pos(), "kernel-next-read",
						"%s copies out of the next-generation buffer; kernels must compute generation g from generation g−1 (cur) only", where)
				}
				return true
			}
			for _, arg := range n.Args {
				if obj := paramOf(arg); obj != nil {
					pass.Reportf(arg.Pos(), "kernel-alias",
						"%s passes the %s buffer to %s; kernels must not let the raw buffers escape (only copy/len/cap may receive them)",
						where, obj.Name(), exprString(n.Fun))
				}
			}
		}
		return true
	})
}

// checkLocalPlanes extends the kernel discipline to the sparse engines'
// label planes: a local binding of the form
//
//	cur, next := x.labels, x.scratch
//
// (both names in one := statement, both slice-typed) establishes the
// same contract as kernel parameters for the rest of their scope — cur
// is the committed generation and is read-only, next is the one being
// built and is write-only, and neither may escape. The sanctioned uses
// mirror the step code that exists: len/cap, copy(next, cur), invoking
// a gca.Kernel, and handing both planes to a kernel-shaped helper whose
// parameters are themselves slices named cur and next (shortcutRange) —
// that body is audited by checkKernelDiscipline.
func checkLocalPlanes(pass *Pass) {
	info := pass.Pkg.Info

	// planeRole maps each bound plane object to "cur" or "next". Keying
	// by object keeps distinct bindings (one per loop iteration, say)
	// independent, and means scope rules do the region tracking: the
	// binding's own LHS idents are Defs, every later use is a Use.
	planeRole := map[types.Object]string{}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Tok.String() != ":=" {
				return true
			}
			var cur, next types.Object
			for _, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || (id.Name != "cur" && id.Name != "next") {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					continue
				}
				if _, isSlice := obj.Type().Underlying().(*types.Slice); !isSlice {
					continue
				}
				if id.Name == "cur" {
					cur = obj
				} else {
					next = obj
				}
			}
			if cur != nil && next != nil {
				planeRole[cur] = "cur"
				planeRole[next] = "next"
			}
			return true
		})
	}
	if len(planeRole) == 0 {
		return
	}

	roleOf := func(expr ast.Expr) (types.Object, string) {
		for {
			switch e := ast.Unparen(expr).(type) {
			case *ast.Ident:
				if obj := info.Uses[e]; obj != nil {
					return obj, planeRole[obj]
				}
				return nil, ""
			case *ast.IndexExpr:
				expr = e.X
			case *ast.SliceExpr:
				expr = e.X
			default:
				return nil, ""
			}
		}
	}
	bareRole := func(expr ast.Expr) (types.Object, string) {
		if id, ok := ast.Unparen(expr).(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				return obj, planeRole[obj]
			}
		}
		return nil, ""
	}

	for _, f := range pass.Pkg.Files {
		writeTargets := map[ast.Expr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					writeTargets[ast.Unparen(lhs)] = true
				}
			case *ast.IncDecStmt:
				writeTargets[ast.Unparen(n.X)] = true
			}
			return true
		})

		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					lhs = ast.Unparen(lhs)
					base := lhs
					if ix, ok := lhs.(*ast.IndexExpr); ok {
						base = ix.X
					}
					if _, role := roleOf(base); role == "cur" {
						pass.Reportf(lhs.Pos(), "plane-cur-write",
							"writes the committed label plane via %s; step code must read cur and write only next (swap the planes to commit)",
							exprString(lhs))
					}
				}
				for _, rhs := range n.Rhs {
					if obj, role := bareRole(rhs); role != "" {
						pass.Reportf(rhs.Pos(), "plane-alias",
							"aliases the %s label plane %q into another variable; the plane contract cannot follow the alias",
							role, obj.Name())
					}
				}
			case *ast.IndexExpr:
				if writeTargets[n] {
					return true
				}
				if _, role := roleOf(n.X); role == "next" {
					pass.Reportf(n.Pos(), "plane-next-read",
						"reads an element of the in-progress label plane via %s; generation g must be computed from the committed plane (cur) only",
						exprString(n))
				}
			case *ast.RangeStmt:
				if _, role := bareRole(n.X); role == "next" {
					pass.Reportf(n.X.Pos(), "plane-next-read",
						"ranges over the in-progress label plane; generation g must be computed from the committed plane (cur) only")
				}
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					if obj, role := bareRole(r); role != "" {
						pass.Reportf(r.Pos(), "plane-alias",
							"returns the %s label plane %q; the raw planes must not escape the step that owns them",
							role, obj.Name())
					}
				}
			case *ast.CallExpr:
				if isScalarSafeBuiltin(info, n) {
					return true
				}
				if isBuiltin(info, n, "copy") && len(n.Args) == 2 {
					if _, role := roleOf(n.Args[0]); role == "cur" {
						pass.Reportf(n.Args[0].Pos(), "plane-cur-write",
							"copies into the committed label plane; step code must read cur and write only next")
					}
					if _, role := roleOf(n.Args[1]); role == "next" {
						pass.Reportf(n.Args[1].Pos(), "plane-next-read",
							"copies out of the in-progress label plane; generation g must be computed from the committed plane (cur) only")
					}
					return true
				}
				if isNamedType(info.TypeOf(n.Fun), "gca", "Kernel") {
					return true
				}
				sig := calleeSignature(info, n)
				for i, arg := range n.Args {
					obj, role := bareRole(arg)
					if role == "" {
						continue
					}
					// A kernel-shaped hand-off: the callee's parameter in
					// this position is a slice with the same role name, so
					// the callee body carries the contract onward (and is
					// audited by checkKernelDiscipline when it names both).
					if sig != nil && i < sig.Params().Len() {
						p := sig.Params().At(i)
						if _, isSlice := p.Type().Underlying().(*types.Slice); isSlice && p.Name() == role {
							continue
						}
					}
					pass.Reportf(arg.Pos(), "plane-alias",
						"passes the %s label plane %q to %s, whose matching parameter is not a slice named %q; the plane contract cannot follow the call",
						role, obj.Name(), exprString(n.Fun), role)
				}
			}
			return true
		})
	}
}

// calleeSignature resolves the signature of a call's callee, including
// function-typed variables (which calleeFunc does not cover), or nil.
func calleeSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	t := info.TypeOf(call.Fun)
	if t == nil {
		return nil
	}
	sig, _ := t.Underlying().(*types.Signature)
	return sig
}

// checkRulePurity flags any reference to a gca.Field from a method
// implementing the Rule contract.
func checkRulePurity(pass *Pass) {
	info := pass.Pkg.Info
	for _, fd := range funcDecls(pass.Pkg) {
		if fd.Recv == nil || !ruleMethodNames[fd.Name.Name] {
			continue
		}
		recv := receiverNamed(info, fd)
		if recv == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if obj == nil {
				return true
			}
			if _, isVar := obj.(*types.Var); !isVar {
				return true
			}
			if isNamedType(obj.Type(), "gca", "Field") {
				pass.Reportf(id.Pos(), "rule-purity",
					"rule method %s.%s references the Field %q; rules must be pure functions of their arguments — field access bypasses the read-cur/write-next discipline",
					recv.Obj().Name(), fd.Name.Name, id.Name)
			}
			return true
		})
	}
}
