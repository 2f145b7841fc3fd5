// Package dataflow implements the scalar analyses the mapping algorithm
// depends on: sparse constant propagation over SSA, induction-variable
// recognition with closed-form replacement, reduction recognition (including
// the conditional max/maxloc pattern used by partial pivoting), and
// privatizability of scalar definitions with respect to enclosing loops.
package dataflow

import (
	"phpf/internal/ast"
	"phpf/internal/ir"
	"phpf/internal/ssa"
)

// Const is a compile-time constant value (see ast.Fold, which computes it).
type Const = ast.Const

// ConstProp computes, for each SSA value, whether it is a compile-time
// constant. The propagation is pessimistic: a value is constant only when
// its inputs are already known constant, iterated to a fixed point (phi
// values require all reachable arguments to agree).
type ConstProp struct {
	s     *ssa.SSA
	known map[*ssa.Value]Const
}

// PropagateConstants runs constant propagation over the SSA form.
func PropagateConstants(s *ssa.SSA) *ConstProp {
	cp := &ConstProp{s: s, known: map[*ssa.Value]Const{}}
	for changed := true; changed; {
		changed = false
		for _, v := range s.Values {
			if _, done := cp.known[v]; done {
				continue
			}
			if c, ok := cp.eval(v); ok {
				cp.known[v] = c
				changed = true
			}
		}
	}
	return cp
}

// ValueConst returns the constant for an SSA value, if known.
func (cp *ConstProp) ValueConst(v *ssa.Value) (Const, bool) {
	c, ok := cp.known[v]
	return c, ok
}

// UseConst returns the constant read by a scalar use reference, if known.
func (cp *ConstProp) UseConst(u *ir.Ref) (Const, bool) {
	v := cp.s.UseDef[u]
	if v == nil {
		return Const{}, false
	}
	return cp.ValueConst(v)
}

func (cp *ConstProp) eval(v *ssa.Value) (Const, bool) {
	switch v.Kind {
	case ssa.VInit:
		return Const{}, false
	case ssa.VPhi:
		var first Const
		have := false
		for _, a := range v.Args {
			if a == nil {
				continue
			}
			c, ok := cp.known[a]
			if !ok {
				return Const{}, false
			}
			if !have {
				first, have = c, true
			} else if !first.Equal(c) {
				return Const{}, false
			}
		}
		return first, have
	default: // VDef
		c, ok := cp.evalExpr(v.Stmt.Rhs, v.Stmt)
		if ok && v.Var.Type == ast.Integer {
			c = c.Round() // the store to an integer scalar rounds
		}
		return c, ok
	}
}

// evalExpr folds an expression given the constants known at stmt (nil: none).
// Array references and loop indices make it non-constant.
func (cp *ConstProp) evalExpr(e ast.Expr, stmt *ir.Stmt) (Const, bool) {
	return ast.Fold(e, func(x *ast.Ref) (Const, bool) {
		if stmt == nil || len(x.Subs) > 0 {
			return Const{}, false
		}
		// Find the matching use reference on the statement.
		for _, u := range stmt.Uses {
			if u.Ast == x {
				return cp.UseConst(u)
			}
		}
		return Const{}, false // loop index or untracked
	})
}
