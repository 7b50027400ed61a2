package check

import (
	"gcacc/internal/gcasm"
)

// Abstract interpretation of rule expressions at a concrete problem
// size. Per cell, the structural registers (row, col, index, n, sub) are
// known constants while the data registers (d, dstar, a, iter) are
// unknown, so an expression evaluates to either a known value — exact
// for every input graph — or "unknown". This splits each generation's
// access pattern the same way Table 1 does: data-independent entries are
// computed exactly, data-dependent ones as a sound worst case (every
// cell whose pointer may be non-'none' counts one read).

// absVal is a value in the abstract domain: a known constant, or an
// unknown that may or may not be the 'none' sentinel.
type absVal struct {
	known   bool
	v       int64
	mayNone bool // for unknowns: 'none' is among the possible outcomes
}

func knownVal(v int64) absVal { return absVal{known: true, v: v} }

func (a absVal) isNone() bool { return a.known && a.v == gcasm.NoneValue }

// mayBeNone reports whether 'none' is a possible outcome.
func (a absVal) mayBeNone() bool { return a.isNone() || a.mayNone }

var unknownVal = absVal{}

// absEnv fixes the structural registers of one cell at one
// sub-generation.
type absEnv struct {
	row, col, index, n, sub int64
	locals                  [gcasm.MaxLetDepth]absVal
}

func newAbsEnv(idx, n, sub int) *absEnv {
	return &absEnv{
		row:   int64(idx) / int64(n),
		col:   int64(idx) % int64(n),
		index: int64(idx),
		n:     int64(n),
		sub:   int64(sub),
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// evalAbs mirrors the runtime closure semantics (ast.go) over absVal.
// Division and pow2 faults degrade to unknown: the verifier never
// assumes a value the runtime would refuse to produce.
func evalAbs(e gcasm.Expr, env *absEnv) absVal {
	switch e := e.(type) {
	case *gcasm.NumExpr:
		return knownVal(e.Value)
	case *gcasm.VarExpr:
		if e.LetSlot >= 0 {
			return env.locals[e.LetSlot]
		}
		switch e.Name {
		case "row":
			return knownVal(env.row)
		case "col":
			return knownVal(env.col)
		case "index":
			return knownVal(env.index)
		case "n":
			return knownVal(env.n)
		case "sub":
			return knownVal(env.sub)
		case "inf":
			return knownVal(gcasm.InfValue)
		case "none":
			return knownVal(gcasm.NoneValue)
		default: // d, dstar, a, iter — and unknown names checkExprs reports
			return unknownVal
		}
	case *gcasm.BinExpr:
		return evalBin(e, env)
	case *gcasm.NotExpr:
		x := evalAbs(e.X, env)
		if !x.known {
			return unknownVal
		}
		return knownVal(b2i(x.v == 0))
	case *gcasm.NegExpr:
		x := evalAbs(e.X, env)
		if !x.known {
			return unknownVal
		}
		return knownVal(-x.v)
	case *gcasm.IfExpr:
		c := evalAbs(e.Cond, env)
		if c.known {
			if c.v != 0 {
				return evalAbs(e.Then, env)
			}
			return evalAbs(e.Else, env)
		}
		t, el := evalAbs(e.Then, env), evalAbs(e.Else, env)
		if t.known && el.known && t.v == el.v {
			return t
		}
		return absVal{mayNone: t.mayBeNone() || el.mayBeNone()}
	case *gcasm.LetExpr:
		saved := env.locals[e.Slot]
		env.locals[e.Slot] = evalAbs(e.Value, env)
		res := evalAbs(e.Body, env)
		env.locals[e.Slot] = saved
		return res
	case *gcasm.CallExpr:
		return evalCall(e, env)
	default:
		return unknownVal
	}
}

func evalBin(e *gcasm.BinExpr, env *absEnv) absVal {
	l := evalAbs(e.L, env)
	// and/or refine through one unknown side: a known-false (known-true)
	// side decides the conjunction (disjunction) regardless of the other.
	switch e.Op {
	case "and":
		if l.known && l.v == 0 {
			return knownVal(0)
		}
		r := evalAbs(e.R, env)
		if r.known && r.v == 0 {
			return knownVal(0)
		}
		if l.known && r.known {
			return knownVal(b2i(l.v != 0 && r.v != 0))
		}
		return unknownVal
	case "or":
		if l.known && l.v != 0 {
			return knownVal(1)
		}
		r := evalAbs(e.R, env)
		if r.known && r.v != 0 {
			return knownVal(1)
		}
		if l.known && r.known {
			return knownVal(b2i(l.v != 0 || r.v != 0))
		}
		return unknownVal
	}
	r := evalAbs(e.R, env)
	if !l.known || !r.known {
		return unknownVal
	}
	switch e.Op {
	case "+":
		return knownVal(l.v + r.v)
	case "-":
		return knownVal(l.v - r.v)
	case "*":
		return knownVal(l.v * r.v)
	case "/":
		if r.v == 0 {
			return unknownVal
		}
		return knownVal(l.v / r.v)
	case "%":
		if r.v == 0 {
			return unknownVal
		}
		return knownVal(l.v % r.v)
	case "==":
		return knownVal(b2i(l.v == r.v))
	case "!=":
		return knownVal(b2i(l.v != r.v))
	case "<":
		return knownVal(b2i(l.v < r.v))
	case "<=":
		return knownVal(b2i(l.v <= r.v))
	case ">":
		return knownVal(b2i(l.v > r.v))
	case ">=":
		return knownVal(b2i(l.v >= r.v))
	default:
		return unknownVal
	}
}

func evalCall(e *gcasm.CallExpr, env *absEnv) absVal {
	args := make([]absVal, len(e.Args))
	for i, a := range e.Args {
		args[i] = evalAbs(a, env)
	}
	switch e.Name {
	case "pow2":
		if len(args) == 1 && args[0].known && args[0].v >= 0 && args[0].v <= 62 {
			return knownVal(1 << uint(args[0].v))
		}
	case "min":
		if len(args) == 2 && args[0].known && args[1].known {
			if args[0].v < args[1].v {
				return args[0]
			}
			return args[1]
		}
	case "max":
		if len(args) == 2 && args[0].known && args[1].known {
			if args[0].v > args[1].v {
				return args[0]
			}
			return args[1]
		}
	case "abs":
		if len(args) == 1 && args[0].known {
			if args[0].v < 0 {
				return knownVal(-args[0].v)
			}
			return args[0]
		}
	}
	return unknownVal
}
