package ir

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"phpf/internal/ast"
)

// Affine is the analyzed form of one array subscript at a particular
// reference site. If OK, the subscript equals
//
//	Const + Σ Terms[i].Coef * Terms[i].Loop.Index
//
// over the loops enclosing the reference. Otherwise the subscript involves
// non-loop scalars or non-linear arithmetic; Scalars lists the scalar
// variables it reads (used to compute VarLevel per the paper).
type Affine struct {
	OK      bool
	Const   int64
	Terms   []AffTerm
	Scalars []*Var   // scalar variables appearing (non-affine case)
	Expr    ast.Expr // original expression
	// Exact is, for an OK form analysed from Expr, the largest index
	// magnitude up to which the run time's float64 evaluation of Expr is
	// exact: every node is an integer that stays below 2^52 — integers that
	// size add, subtract and multiply exactly, and the divisions the analysis
	// accepts divide evenly; the factor two below 2^53 absorbs the rounding
	// of the bound arithmetic itself. Zero means no usable range.
	Exact int64
}

// AffTerm is one linear term over an enclosing loop's index.
type AffTerm struct {
	Loop *Loop
	Coef int64
}

// String renders the affine form for diagnostics.
func (a Affine) String() string {
	if !a.OK {
		return fmt.Sprintf("nonaffine(%s)", ast.ExprString(a.Expr))
	}
	var parts []string
	for _, t := range a.Terms {
		switch t.Coef {
		case 1:
			parts = append(parts, t.Loop.Index.Name)
		case -1:
			parts = append(parts, "-"+t.Loop.Index.Name)
		default:
			parts = append(parts, fmt.Sprintf("%d*%s", t.Coef, t.Loop.Index.Name))
		}
	}
	if a.Const != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%d", a.Const))
	}
	return strings.Join(parts, "+")
}

// CoefOf returns the coefficient of loop l's index (0 if absent).
func (a Affine) CoefOf(l *Loop) int64 {
	for _, t := range a.Terms {
		if t.Loop == l {
			return t.Coef
		}
	}
	return 0
}

// VariesIn reports whether the subscript's value can change across
// iterations of loop l: either l's index appears in an affine term, or
// (non-affine case) l's index appears, or some scalar it reads is assigned
// within l.
func (a Affine) VariesIn(l *Loop) bool {
	if a.OK {
		return a.CoefOf(l) != 0
	}
	for _, v := range a.Scalars {
		if v == l.Index {
			return true
		}
		if !v.IsLoopIndex && v.DefLoops[l] {
			return true
		}
	}
	return false
}

// Delta returns b − a when the two forms agree on their loop terms — taken in
// nesting order, the same index variables with the same coefficients — so that
// the difference is one constant at every iteration. Terms are matched by
// index variable, not by loop identity: congruent nests (a producer and a
// consumer nest both over j) compare equal, which is what the paper's
// co-location arguments rely on. In nesting order: i+2j under (i, j) and
// under (j, i) do not agree — the stricter of the two rules this replaced,
// kept so that no caller's answer moved (DESIGN.md §15).
func (a Affine) Delta(b Affine) (int64, bool) {
	if !a.OK || !b.OK || len(a.Terms) != len(b.Terms) {
		return 0, false
	}
	for i, t := range a.Terms {
		if u := b.Terms[i]; t.Loop.Index != u.Loop.Index || t.Coef != u.Coef {
			return 0, false
		}
	}
	return b.Const - a.Const, true
}

// Without returns the form with loop l's term dropped: a at l's index 0. (It
// no longer stands for an expression.)
func (a Affine) Without(l *Loop) Affine {
	out := Affine{OK: a.OK, Const: a.Const, Scalars: a.Scalars}
	for _, t := range a.Terms {
		if t.Loop != l {
			out.Terms = append(out.Terms, t)
		}
	}
	return out
}

// Inside returns the terms over the indices of l and of the loops nested in l.
func (a Affine) Inside(l *Loop) []AffTerm {
	var out []AffTerm
	for _, t := range a.Terms {
		if Encloses(l, t.Loop) {
			out = append(out, t)
		}
	}
	return out
}

// AnalyzeForms computes every affine form of the program from its expressions
// as they now stand: the subscripts of each array reference, the bounds and
// the constant step of each loop. Build ends with it and a pass that rewrites
// expressions (the induction closed forms) calls it again; no reader analyses
// a subscript or a bound for itself.
func (p *Program) AnalyzeForms() {
	for _, r := range p.Refs {
		if !r.Var.IsArray() {
			continue
		}
		if cap(r.Subs) < len(r.Ast.Subs) {
			r.Subs = make([]Affine, 0, len(r.Ast.Subs))
		}
		r.Subs = r.Subs[:0]
		for _, e := range r.Ast.Subs {
			r.Subs = append(r.Subs, AnalyzeAffine(e, r.Stmt.Loop, p.LookupVar))
		}
	}
	for _, l := range p.Loops {
		l.Lo = AnalyzeAffine(l.Lo.Expr, l.Parent, p.LookupVar)
		l.Hi = AnalyzeAffine(l.Hi.Expr, l.Parent, p.LookupVar)
		l.StepConst = 1
		if l.Step != nil {
			// The step the run computes: folded, then rounded as every
			// integer context rounds.
			c, ok := ast.Fold(l.Step, nil)
			if c = c.Round(); !ok || !c.IsInt {
				c.I = 0
			}
			l.StepConst = c.I
		}
	}
}

// AnalyzeAffine computes the affine form of expression e in the context of
// the loop nest with innermost loop encl. lookup resolves scalar variable
// names (may be nil, in which case non-index scalars are simply non-affine
// with no VarLevel contribution).
func AnalyzeAffine(e ast.Expr, encl *Loop, lookup func(string) *Var) Affine {
	an := affAnalyzer{encl: encl, worst: 1}
	a := Affine{Expr: e}
	if f, ok := an.affine(e); ok {
		a.OK, a.Const = true, f.c
		// Canonical terms: no zero coefficient, outermost loop first.
		a.Terms = slices.DeleteFunc(f.t, func(t AffTerm) bool { return t.Coef == 0 })
		slices.SortFunc(a.Terms, func(x, y AffTerm) int { return x.Loop.Level - y.Loop.Level })
		a.Exact = int64(float64(int64(1)<<52) / an.worst)
	} else {
		a.Scalars = scalarsIn(e, encl, lookup)
	}
	return a
}

type affAnalyzer struct {
	encl *Loop
	// worst is the largest k+m of any node analysed (see lin).
	worst float64
}

// lin is an expression as c + Σ coef·index over the terms t (one per loop, a
// coefficient that cancelled to zero stays listed), with the magnitudes that
// bound it the way the run time meets it: evaluated node by node in float64,
// the value is an integer of magnitude at most k + m·M (k from constants, m
// from index terms) while no index exceeds M. The analysis consumes each lin
// once, so plus and times work in place.
type lin struct {
	c    int64
	t    []AffTerm
	k, m float64
}

// plus returns f + sign·g.
func (f lin) plus(g lin, sign int64) lin {
	f.c, f.k, f.m = f.c+sign*g.c, f.k+g.k, f.m+g.m
	for _, u := range g.t {
		if i := slices.IndexFunc(f.t, func(t AffTerm) bool { return t.Loop == u.Loop }); i >= 0 {
			f.t[i].Coef += sign * u.Coef
		} else {
			f.t = append(f.t, AffTerm{Loop: u.Loop, Coef: sign * u.Coef})
		}
	}
	return f
}

// times returns by·f, its magnitudes left to the caller.
func (f lin) times(by int64) lin {
	f.c *= by
	for i := range f.t {
		f.t[i].Coef *= by
	}
	return f
}

// affine attempts to express e as const + Σ coef*loopindex.
func (an *affAnalyzer) affine(e ast.Expr) (lin, bool) {
	f, ok := an.form(e)
	an.worst = math.Max(an.worst, f.k+f.m)
	return f, ok
}

func (an *affAnalyzer) form(e ast.Expr) (lin, bool) {
	switch x := e.(type) {
	case *ast.IntConst:
		return lin{c: x.Value, k: math.Abs(float64(x.Value))}, true
	case *ast.Ref:
		for l := an.encl; l != nil && len(x.Subs) == 0; l = l.Parent {
			if l.Index.Name == x.Name {
				return lin{t: []AffTerm{{Loop: l, Coef: 1}}, m: 1}, true
			}
		}
	case *ast.UnaryMinus:
		if f, ok := an.affine(x.X); ok {
			return f.times(-1), true
		}
	case *ast.BinOp:
		l, lok := an.affine(x.L)
		r, rok := an.affine(x.R)
		if !lok || !rok {
			break
		}
		switch x.Op {
		case ast.Add:
			return l.plus(r, 1), true
		case ast.Sub:
			return l.plus(r, -1), true
		case ast.Mul:
			// One side must be index-free; the other is scaled by it.
			if len(l.t) != 0 {
				l, r = r, l
			}
			if len(l.t) == 0 {
				out := r.times(l.c)
				out.k, out.m = l.k*r.k, l.k*r.m+r.k*l.m
				return out, true
			}
		case ast.Div:
			// An index-free divisor that divides the form evenly (an integer
			// divisor only shrinks the value).
			if len(r.t) != 0 || r.c == 0 || l.c%r.c != 0 ||
				slices.ContainsFunc(l.t, func(t AffTerm) bool { return t.Coef%r.c != 0 }) {
				break
			}
			l.c /= r.c
			for i := range l.t {
				l.t[i].Coef /= r.c
			}
			return l, true
		}
	}
	return lin{}, false
}

// scalarsIn collects the scalar variables (loop indices and others) read by
// e, resolved through the lookup function.
func scalarsIn(e ast.Expr, encl *Loop, lookup func(string) *Var) []*Var {
	seen := map[string]bool{}
	var out []*Var
	ast.Walk(e, func(n ast.Expr) {
		r, ok := n.(*ast.Ref)
		if !ok || seen[r.Name] {
			return
		}
		seen[r.Name] = true
		for l := encl; l != nil; l = l.Parent {
			if l.Index.Name == r.Name {
				out = append(out, l.Index)
				return
			}
		}
		if lookup != nil {
			if v := lookup(r.Name); v != nil && !v.IsArray() {
				out = append(out, v)
			}
		}
	})
	return out
}

// VarLevel returns the paper's VarLevel(s): the nesting level of the
// innermost loop, among those enclosing stmt, in which the subscript varies
// in value. Level 0 means the subscript is invariant in the whole nest.
func VarLevel(a Affine, stmt *Stmt) int {
	for l := stmt.Loop; l != nil; l = l.Parent {
		if a.VariesIn(l) {
			return l.Level
		}
	}
	return 0
}

// SubscriptAlignLevel returns VarLevel(s) for affine subscripts and
// VarLevel(s)+1 otherwise — the nesting level of the outermost loop
// throughout which the subscript's value is well-defined (paper §2.2).
func SubscriptAlignLevel(a Affine, stmt *Stmt) int {
	vl := VarLevel(a, stmt)
	if a.OK {
		return vl
	}
	return vl + 1
}
