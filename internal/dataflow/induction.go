package dataflow

import (
	"slices"

	"phpf/internal/ast"
	"phpf/internal/ir"
	"phpf/internal/ssa"
)

// Induction describes a recognized basic induction variable: a scalar
// updated exactly once per iteration of Loop as v = v ± c with c and the
// initial value loop-invariant constants.
type Induction struct {
	Var  *ir.Var
	Loop *ir.Loop
	Stmt *ir.Stmt // the increment statement
	Init int64    // value before the loop
	Incr int64    // per-iteration increment (negative for decrements)

	// ClosedForm is the expression for the value of the variable just after
	// the increment in iteration I of Loop: Init + ((I - lo)/step + 1)*Incr.
	ClosedForm ast.Expr
}

// FindInductionVars recognizes basic induction variables, following the
// paper: "any scalar variable recognized as an induction variable ... the
// phpf compiler replaces the rhs of that assignment statement by the
// closed-form expression for the value of that induction variable as a
// function of surrounding loop indices."
//
// Requirements checked:
//   - the statement has the shape v = v + c, v = c + v, or v = v - c with
//     c an integer constant;
//   - the statement executes unconditionally exactly once per iteration
//     (directly in the loop body, not under an IF);
//   - the rhs use of v is reached only by this definition (via the back
//     edge) and by constant definitions from outside the loop that agree
//     on the initial value.
func FindInductionVars(p *ir.Program, s *ssa.SSA, cp *ConstProp) []*Induction {
	var out []*Induction
	for _, st := range p.Stmts {
		if iv := recognizeInduction(st, s, cp); iv != nil {
			out = append(out, iv)
		}
	}
	return out
}

func recognizeInduction(st *ir.Stmt, s *ssa.SSA, cp *ConstProp) *Induction {
	if st.Kind != ir.SAssign || st.Loop == nil || len(st.EnclosingIfs) > 0 {
		return nil
	}
	v := st.Lhs.Var
	if v.IsArray() || v.Type != ast.Integer {
		return nil
	}
	selfUse, incr, ok := matchIncrement(st, v)
	if !ok {
		return nil
	}
	loop := st.Loop

	// The self use must be fed by exactly: this def (crossing the loop's
	// back edge) plus constant defs from outside the loop.
	thisDef := s.DefOf[st]
	defs := s.ReachingDefs(selfUse)
	var init Const
	haveInit := false
	sawSelf := false
	for _, d := range defs {
		if d == thisDef {
			sawSelf = true
			continue
		}
		// Outside definition: must be a constant, and the def must be
		// outside the loop.
		if d.Kind == ssa.VDef && ir.Encloses(loop, d.Stmt.Loop) {
			return nil // another def inside the loop
		}
		c, isConst := cp.ValueConst(d)
		if !isConst || !c.IsInt {
			return nil
		}
		if haveInit && c.I != init.I {
			return nil
		}
		init, haveInit = c, true
	}
	if !sawSelf || !haveInit {
		return nil
	}
	// Verify the self use only arrives via the back edge from this def
	// (i.e. the def from a previous iteration), never within the same
	// iteration — guaranteed here because the use is on the defining
	// statement itself.

	iv := &Induction{
		Var:  v,
		Loop: loop,
		Stmt: st,
		Init: init.I,
		Incr: incr,
	}
	iv.ClosedForm = closedForm(iv)
	return iv
}

// matchIncrement matches st.Rhs against v ± c — a sum update (matchUpdate)
// whose contribution folds to an integer — and returns the self use reference
// and signed increment.
func matchIncrement(st *ir.Stmt, v *ir.Var) (*ir.Ref, int64, bool) {
	var self *ir.Ref
	op, data, negate := matchUpdate(st.Rhs, func(e ast.Expr) bool {
		self = scalarUse(st, v, e)
		return self != nil
	})
	if data == nil || op != RedSum {
		return nil, 0, false
	}
	c, ok := ast.Fold(data, nil)
	if negate {
		c.I = -c.I
	}
	return self, c.I, ok && c.IsInt
}

// closedForm builds Init + ((i - lo)/step + 1) * Incr as an AST expression,
// simplified for the common step=1 case.
func closedForm(iv *Induction) ast.Expr {
	loop := iv.Loop
	idx := &ast.Ref{Name: loop.Index.Name}
	// k = (i - lo)/step + 1
	var k ast.Expr = &ast.BinOp{Op: ast.Sub, L: idx, R: loop.Lo.Expr}
	if loop.StepConst != 1 {
		k = &ast.BinOp{Op: ast.Div, L: k, R: loop.Step}
	}
	k = &ast.BinOp{Op: ast.Add, L: k, R: &ast.IntConst{Value: 1}}
	var scaled ast.Expr = k
	if iv.Incr != 1 {
		scaled = &ast.BinOp{Op: ast.Mul, L: &ast.IntConst{Value: iv.Incr}, R: k}
	}
	return simplify(&ast.BinOp{Op: ast.Add, L: &ast.IntConst{Value: iv.Init}, R: scaled})
}

// simplify performs constant folding and +0 elimination on integer affine
// expressions (enough to turn 2 + ((i-2)+1) into i+1). A constant subtree is
// replaced only when it folds to an integer: one that goes real (7/2) keeps
// its operator, for the run time to compute.
func simplify(e ast.Expr) ast.Expr {
	b, ok := e.(*ast.BinOp)
	if !ok {
		return e
	}
	if c, ok := ast.Fold(b, nil); ok && c.IsInt {
		return &ast.IntConst{Value: c.I}
	}
	l := simplify(b.L)
	r := simplify(b.R)
	lc, lok := l.(*ast.IntConst)
	rc, rok := r.(*ast.IntConst)
	// x + 0, 0 + x, x - 0, 1*x, x*1.
	if b.Op == ast.Add && rok && rc.Value == 0 {
		return l
	}
	if b.Op == ast.Add && lok && lc.Value == 0 {
		return r
	}
	if b.Op == ast.Sub && rok && rc.Value == 0 {
		return l
	}
	if b.Op == ast.Mul && lok && lc.Value == 1 {
		return r
	}
	if b.Op == ast.Mul && rok && rc.Value == 1 {
		return l
	}
	// Canonicalize c + x to x + c so reassociation below applies.
	if b.Op == ast.Add && lok && !rok {
		return simplify(&ast.BinOp{Op: ast.Add, L: r, R: l})
	}
	// Reassociate (x + c1) + c2 into x + (c1 + c2) and (x - c1) + c2 into
	// x + (c2 - c1); the new constant subtree folds on the way back in.
	if b.Op == ast.Add && rok {
		if lb, ok := l.(*ast.BinOp); ok {
			if ic, ok2 := lb.R.(*ast.IntConst); ok2 {
				switch lb.Op {
				case ast.Add:
					return simplify(&ast.BinOp{Op: ast.Add, L: lb.L,
						R: &ast.BinOp{Op: ast.Add, L: ic, R: rc}})
				case ast.Sub:
					return simplify(&ast.BinOp{Op: ast.Add, L: lb.L,
						R: &ast.BinOp{Op: ast.Sub, L: rc, R: ic}})
				}
			}
		}
	}
	// Normalize x + (-c) to x - c.
	if b.Op == ast.Add && rok && rc.Value < 0 {
		if c, ok := ast.Fold(&ast.UnaryMinus{X: rc}, nil); ok && c.IsInt {
			return &ast.BinOp{Op: ast.Sub, L: l, R: &ast.IntConst{Value: c.I}}
		}
	}
	return &ast.BinOp{Op: b.Op, L: l, R: r}
}

// ApplyInductionRewrites substitutes the closed form:
//   - the increment statement's rhs becomes the closed form, and
//   - every same-iteration use of the variable whose only reaching
//     definition is the increment is replaced in place by the closed form
//     (this is what lets d(m) be analyzed as d(i+1)).
//
// The IR is mutated; the caller must rebuild the CFG and SSA afterwards.
// Returns the number of rewritten use sites.
func ApplyInductionRewrites(p *ir.Program, s *ssa.SSA, ivs []*Induction) int {
	rewritten := 0
	for _, iv := range ivs {
		def := s.DefOf[iv.Stmt]
		// Collect same-iteration uses uniquely reached by this def.
		var replaceUses []*ir.Ref
		for _, ru := range s.ReachedUses(def) {
			if ru.CrossesBackOf.Has(iv.Loop) {
				continue // previous-iteration use (the increment's own rhs)
			}
			defs := s.ReachingDefs(ru.Ref)
			if len(defs) == 1 && defs[0] == def {
				replaceUses = append(replaceUses, ru.Ref)
			}
		}
		for _, u := range replaceUses {
			if substituteRef(u, iv.ClosedForm) {
				rewritten++
			}
		}
		// Replace the increment's rhs by the closed form. The statement's
		// remaining use (of the previous value) disappears.
		iv.Stmt.Rhs = cloneExpr(iv.ClosedForm)
		iv.Stmt.Uses = slices.DeleteFunc(iv.Stmt.Uses, func(r *ir.Ref) bool { return r.Var == iv.Var && !r.IsDef })
	}
	if rewritten > 0 || len(ivs) > 0 {
		p.AnalyzeForms()
	}
	return rewritten
}

// substituteRef replaces use's ast.Ref node with a clone of repl inside the
// statement that contains it, and removes the use from the statement's use
// list. Every other reference keeps its node (subscripts are rewritten in
// place). Returns false if the node could not be located.
func substituteRef(use *ir.Ref, repl ast.Expr) bool {
	st := use.Stmt
	replaced := false
	var sub func(e ast.Expr) ast.Expr
	sub = func(e ast.Expr) ast.Expr {
		return ast.Rewrite(e, func(x *ast.Ref) ast.Expr {
			if x == use.Ast {
				replaced = true
				return cloneExpr(repl)
			}
			for i := range x.Subs {
				x.Subs[i] = sub(x.Subs[i])
			}
			return x
		})
	}
	st.Rhs = sub(st.Rhs)
	st.Cond = sub(st.Cond)
	if st.Lhs != nil {
		sub(st.Lhs.Ast)
	}
	if replaced {
		st.Uses = slices.DeleteFunc(st.Uses, func(r *ir.Ref) bool { return r == use })
	}
	return replaced
}

// cloneExpr copies an expression, references included (the copies stand for
// no ir.Ref).
func cloneExpr(e ast.Expr) ast.Expr {
	return ast.Rewrite(e, func(x *ast.Ref) ast.Expr {
		c := &ast.Ref{Name: x.Name, Line: x.Line}
		for _, s := range x.Subs {
			c.Subs = append(c.Subs, cloneExpr(s))
		}
		return c
	})
}
