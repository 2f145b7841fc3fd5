package dataflow

import (
	"testing"

	"phpf/internal/ast"
	"phpf/internal/ir"
	"phpf/internal/parser"
	"phpf/internal/ssa"
)

type env struct {
	p  *ir.Program
	g  *ir.CFG
	s  *ssa.SSA
	cp *ConstProp
}

func mkEnv(t *testing.T, src string) *env {
	t.Helper()
	ap, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := ir.Build(ap)
	if err != nil {
		t.Fatalf("ir: %v", err)
	}
	g, err := ir.BuildCFG(p)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	s := ssa.Build(p, g)
	return &env{p: p, g: g, s: s, cp: PropagateConstants(s)}
}

func assign(p *ir.Program, name string, idx int) *ir.Stmt {
	n := 0
	for _, st := range p.Stmts {
		if st.Kind == ir.SAssign && st.Lhs.Var.Name == name {
			if n == idx {
				return st
			}
			n++
		}
	}
	return nil
}

// --- constant propagation --------------------------------------------------

func TestConstPropStraightLine(t *testing.T) {
	e := mkEnv(t, `
program t
integer a, b, c
a = 3
b = a * 4
c = b - 2
end
`)
	d := e.s.DefOf[assign(e.p, "c", 0)]
	c, ok := e.cp.ValueConst(d)
	if !ok || !c.IsInt || c.I != 10 {
		t.Errorf("c = %+v ok=%v, want 10", c, ok)
	}
}

func TestConstPropPhiAgreement(t *testing.T) {
	e := mkEnv(t, `
program t
real x, c, y
if (c > 0.0) then
  x = 2.0
else
  x = 2.0
end if
y = x + 1.0
end
`)
	d := e.s.DefOf[assign(e.p, "y", 0)]
	c, ok := e.cp.ValueConst(d)
	if !ok || c.Float() != 3.0 {
		t.Errorf("y = %+v ok=%v, want 3.0", c, ok)
	}
}

func TestConstPropPhiDisagreement(t *testing.T) {
	e := mkEnv(t, `
program t
real x, c, y
if (c > 0.0) then
  x = 2.0
else
  x = 3.0
end if
y = x
end
`)
	d := e.s.DefOf[assign(e.p, "y", 0)]
	if _, ok := e.cp.ValueConst(d); ok {
		t.Error("y should not be constant")
	}
}

func TestConstPropLoopCarriedNotConst(t *testing.T) {
	e := mkEnv(t, `
program t
parameter n = 4
real a(n)
integer m, i
m = 2
do i = 1, n
  m = m + 1
  a(m) = 0.0
end do
end
`)
	d := e.s.DefOf[assign(e.p, "m", 1)]
	if _, ok := e.cp.ValueConst(d); ok {
		t.Error("loop-carried m should not be constant")
	}
	// The outer m=2 is constant.
	d0 := e.s.DefOf[assign(e.p, "m", 0)]
	c, ok := e.cp.ValueConst(d0)
	if !ok || c.I != 2 {
		t.Errorf("m0 = %+v", c)
	}
}

func TestConstPropIntrinsics(t *testing.T) {
	e := mkEnv(t, `
program t
real x, y
integer k
x = abs(-3.0)
y = max(x, 5.0)
k = mod(7, 4)
end
`)
	if c, ok := e.cp.ValueConst(e.s.DefOf[assign(e.p, "y", 0)]); !ok || c.Float() != 5.0 {
		t.Errorf("y = %+v ok=%v", c, ok)
	}
	if c, ok := e.cp.ValueConst(e.s.DefOf[assign(e.p, "k", 0)]); !ok || c.I != 3 {
		t.Errorf("k = %+v ok=%v", c, ok)
	}
}

// --- induction variables ----------------------------------------------------

func TestInductionFigure1(t *testing.T) {
	e := mkEnv(t, `
program t
parameter n = 10
real d(n)
integer i, m
m = 2
do i = 2, n-1
  m = m + 1
  d(m) = 1.0
end do
end
`)
	ivs := FindInductionVars(e.p, e.s, e.cp)
	if len(ivs) != 1 {
		t.Fatalf("found %d induction vars, want 1", len(ivs))
	}
	iv := ivs[0]
	if iv.Var.Name != "m" || iv.Init != 2 || iv.Incr != 1 {
		t.Errorf("iv = %+v", iv)
	}
	// Closed form: 2 + ((i-2)+1)*1 simplifies to i + 1.
	if got := ast.ExprString(iv.ClosedForm); got != "(i + 1)" {
		t.Errorf("closed form = %s, want (i + 1)", got)
	}
}

func TestInductionRewriteMakesSubscriptAffine(t *testing.T) {
	e := mkEnv(t, `
program t
parameter n = 10
real d(n)
integer i, m
m = 2
do i = 2, n-1
  m = m + 1
  d(m) = 1.0
end do
end
`)
	ivs := FindInductionVars(e.p, e.s, e.cp)
	nrw := ApplyInductionRewrites(e.p, e.s, ivs)
	if nrw != 1 {
		t.Errorf("rewrote %d uses, want 1", nrw)
	}
	dm := assign(e.p, "d", 0)
	sub := dm.Lhs.Subs[0]
	if !sub.OK {
		t.Fatalf("d(m) subscript not affine after rewrite: %s", sub)
	}
	if sub.Const != 1 || len(sub.Terms) != 1 || sub.Terms[0].Coef != 1 {
		t.Errorf("subscript = %s, want i+1", sub)
	}
	// The m use in the subscript is gone from the statement's uses.
	for _, u := range dm.Uses {
		if u.Var.Name == "m" {
			t.Error("m use still tracked after rewrite")
		}
	}
}

func TestInductionNotRecognizedUnderIf(t *testing.T) {
	e := mkEnv(t, `
program t
parameter n = 10
real d(n), c(n)
integer i, m
m = 0
do i = 1, n
  if (c(i) > 0.0) then
    m = m + 1
  end if
  d(i) = 1.0
end do
end
`)
	ivs := FindInductionVars(e.p, e.s, e.cp)
	if len(ivs) != 0 {
		t.Errorf("conditional increment recognized as induction: %+v", ivs)
	}
}

func TestInductionNonConstInit(t *testing.T) {
	e := mkEnv(t, `
program t
parameter n = 10
real d(n), c(n)
integer i, m
m = 0
do i = 1, n
  m = m + 1
end do
do i = 1, n
  m = m + 1
  d(i) = c(i)
end do
end
`)
	// The second loop's m starts from the first loop's result: the first
	// loop's increment is a valid IV (init 0); the second's init is the
	// first loop's final value, which our constprop does not track, so it
	// is rejected.
	ivs := FindInductionVars(e.p, e.s, e.cp)
	if len(ivs) != 1 {
		t.Fatalf("got %d IVs, want 1 (first loop only): %+v", len(ivs), ivs)
	}
	if ivs[0].Stmt != assign(e.p, "m", 1) {
		t.Error("wrong IV statement")
	}
}

func TestInductionDecrement(t *testing.T) {
	e := mkEnv(t, `
program t
parameter n = 10
real d(n)
integer i, m
m = 11
do i = 1, n
  m = m - 1
  d(m) = 0.0
end do
end
`)
	ivs := FindInductionVars(e.p, e.s, e.cp)
	if len(ivs) != 1 || ivs[0].Incr != -1 || ivs[0].Init != 11 {
		t.Fatalf("ivs = %+v", ivs)
	}
	ApplyInductionRewrites(e.p, e.s, ivs)
	sub := assign(e.p, "d", 0).Lhs.Subs[0]
	// 11 + (i-1+1)*(-1) = 11 - i.
	if !sub.OK || sub.Const != 11 || sub.Terms[0].Coef != -1 {
		t.Errorf("subscript = %s, want 11-i", sub)
	}
}

// --- reductions --------------------------------------------------------------

func TestReductionSum(t *testing.T) {
	e := mkEnv(t, `
program t
parameter n = 8
real a(n,n), b(n)
real s
integer i, j
do i = 1, n
  s = 0.0
  do j = 1, n
    s = s + a(i,j)
  end do
  b(i) = s
end do
end
`)
	reds := FindReductions(e.p, e.s)
	if len(reds) != 1 {
		t.Fatalf("found %d reductions, want 1", len(reds))
	}
	r := reds[0]
	if r.Var.Name != "s" || r.Op != RedSum {
		t.Errorf("reduction = %+v", r)
	}
	if r.Loop.Index.Name != "j" {
		t.Errorf("carrier loop = %s, want j", r.Loop.Index.Name)
	}
	if r.DataRef == nil || r.DataRef.Var.Name != "a" {
		t.Errorf("data ref = %v", r.DataRef)
	}
}

func TestReductionMaxIntrinsic(t *testing.T) {
	e := mkEnv(t, `
program t
parameter n = 8
real a(n)
real t0
integer i
t0 = 0.0
do i = 1, n
  t0 = max(t0, abs(a(i)))
end do
a(1) = t0
end
`)
	reds := FindReductions(e.p, e.s)
	if len(reds) != 1 || reds[0].Op != RedMax {
		t.Fatalf("reds = %+v", reds)
	}
}

func TestReductionConditionalMaxloc(t *testing.T) {
	// The DGEFA pivot-search pattern.
	e := mkEnv(t, `
program t
parameter n = 8
real a(n,n)
real t0
integer i, k, l
do k = 1, n
  t0 = abs(a(k,k))
  l = k
  do i = k+1, n
    if (abs(a(i,k)) > t0) then
      t0 = abs(a(i,k))
      l = i
    end if
  end do
  a(l,k) = t0
end do
end
`)
	reds := FindReductions(e.p, e.s)
	if len(reds) != 2 {
		t.Fatalf("found %d reductions, want 2 (t0 max + l maxloc): %+v", len(reds), reds)
	}
	var maxRed, locRed *Reduction
	for _, r := range reds {
		switch r.Var.Name {
		case "t0":
			maxRed = r
		case "l":
			locRed = r
		}
	}
	if maxRed == nil || maxRed.Op != RedMax {
		t.Fatalf("t0 reduction = %+v", maxRed)
	}
	if locRed == nil || locRed.Op != RedMaxLoc || locRed.Companion != maxRed {
		t.Fatalf("l reduction = %+v", locRed)
	}
	if maxRed.Loop.Index.Name != "i" {
		t.Errorf("carrier = %s, want i", maxRed.Loop.Index.Name)
	}
	if maxRed.DataRef == nil || maxRed.DataRef.Var.Name != "a" {
		t.Errorf("data ref = %v", maxRed.DataRef)
	}
}

func TestReductionNotWhenUsedInsideLoop(t *testing.T) {
	// s is read by another statement inside the loop: the running value is
	// consumed per-iteration, so it is not a pure reduction. We still
	// recognize the update shape, but the crucial property (only
	// loop-carried through itself) holds; uses of the running value inside
	// the loop make parallel reduction invalid.
	e := mkEnv(t, `
program t
parameter n = 8
real a(n), b(n)
real s
integer i
s = 0.0
do i = 1, n
  s = s + a(i)
  b(i) = s
end do
end
`)
	reds := FindReductions(e.p, e.s)
	// The running prefix-sum is recognized by shape; callers must check
	// for other uses. Document the current contract: it IS found here.
	if len(reds) != 1 {
		t.Fatalf("reds = %+v", reds)
	}
}

// --- privatizability ----------------------------------------------------------

func TestPrivatizableSimple(t *testing.T) {
	e := mkEnv(t, `
program t
parameter n = 8
real b(n), d(n)
real x
integer i
do i = 1, n
  x = b(i)
  d(i) = x
end do
end
`)
	d := e.s.DefOf[assign(e.p, "x", 0)]
	loop := e.p.Loops[0]
	if !Privatizable(e.s, d, loop) {
		t.Error("x should be privatizable wrt the i-loop")
	}
	if l := PrivatizationLevel(e.s, d); l != loop {
		t.Errorf("privatization loop = %v, want the i-loop", l)
	}
}

func TestNotPrivatizableLiveOut(t *testing.T) {
	e := mkEnv(t, `
program t
parameter n = 8
real b(n), d(n)
real x
integer i
do i = 1, n
  x = b(i)
end do
d(1) = x
end
`)
	d := e.s.DefOf[assign(e.p, "x", 0)]
	loop := e.p.Loops[0]
	if Privatizable(e.s, d, loop) {
		t.Error("x is live-out; must not be privatizable")
	}
}

func TestNotPrivatizableLoopCarried(t *testing.T) {
	e := mkEnv(t, `
program t
parameter n = 8
real b(n), d(n)
real x
integer i
x = 0.0
do i = 1, n
  d(i) = x
  x = b(i)
end do
end
`)
	d := e.s.DefOf[assign(e.p, "x", 1)]
	loop := e.p.Loops[0]
	if Privatizable(e.s, d, loop) {
		t.Error("x carries across iterations; must not be privatizable")
	}
}

func TestPrivatizableAtInnerNotOuter(t *testing.T) {
	// x is consumed within each j-iteration; it is privatizable wrt both
	// loops, and the outermost level is reported.
	e := mkEnv(t, `
program t
parameter n = 8
real b(n,n), d(n,n)
real x
integer i, j
do i = 1, n
  do j = 1, n
    x = b(i,j)
    d(i,j) = x
  end do
end do
end
`)
	d := e.s.DefOf[assign(e.p, "x", 0)]
	if l := PrivatizationLevel(e.s, d); l == nil || l.Level != 1 || l.Index.Name != "i" {
		t.Errorf("loop = %v, want the outermost (level 1, i)", l)
	}
	if !Privatizable(e.s, d, e.p.Loops[1]) {
		t.Error("also privatizable wrt the j-loop")
	}
}

func TestPrivatizableUsedAcrossInnerLoopOnly(t *testing.T) {
	// x set before the j-loop, used inside it: privatizable wrt the i-loop
	// but NOT wrt the j-loop (defined outside it).
	e := mkEnv(t, `
program t
parameter n = 8
real b(n), d(n,n)
real x
integer i, j
do i = 1, n
  x = b(i)
  do j = 1, n
    d(i,j) = x
  end do
end do
end
`)
	d := e.s.DefOf[assign(e.p, "x", 0)]
	iL, jL := e.p.Loops[0], e.p.Loops[1]
	if !Privatizable(e.s, d, iL) {
		t.Error("x should be privatizable wrt i-loop")
	}
	if Privatizable(e.s, d, jL) {
		t.Error("x defined outside j-loop; not privatizable wrt it")
	}
	if l := PrivatizationLevel(e.s, d); l != iL {
		t.Errorf("loop = %v, want the i-loop", l)
	}
}

// TestSimplifyKeepsWhatGoesReal: a constant subtree is replaced by a literal
// only when it folds to an integer; 7/2 is 3.5 at run time and keeps its
// operator rather than being written back as the integer 3.
func TestSimplifyKeepsWhatGoesReal(t *testing.T) {
	lit := func(v int64) ast.Expr { return &ast.IntConst{Value: v} }
	bin := func(op ast.Op, l, r ast.Expr) ast.Expr { return &ast.BinOp{Op: op, L: l, R: r} }
	i := &ast.Ref{Name: "i"}
	for _, c := range []struct {
		e    ast.Expr
		want string
	}{
		{bin(ast.Div, lit(7), lit(2)), "(7 / 2)"},
		{bin(ast.Add, i, bin(ast.Div, lit(7), lit(2))), "(i + (7 / 2))"},
		{bin(ast.Div, lit(1), lit(0)), "(1 / 0)"},
		{bin(ast.Add, i, bin(ast.Div, lit(6), lit(2))), "(i + 3)"},
		{bin(ast.Add, bin(ast.Sub, i, lit(2)), lit(1)), "(i - 1)"},
		{bin(ast.Add, lit(2), bin(ast.Add, bin(ast.Sub, i, lit(2)), lit(1))), "(i + 1)"},
	} {
		if got := ast.ExprString(simplify(c.e)); got != c.want {
			t.Errorf("simplify(%s) = %s, want %s", ast.ExprString(c.e), got, c.want)
		}
	}
}

// TestConstPropFollowsTheRunTime: the propagated value of a definition is
// the value the machine stores — real division, and a rounding store into an
// integer scalar.
func TestConstPropFollowsTheRunTime(t *testing.T) {
	e := mkEnv(t, `
program t
real x, y
integer m, k, j
x = 7/2
m = 7/2
k = 2.6
j = 0 - 7/2
y = m * 2
end
`)
	for _, c := range []struct {
		name  string
		want  float64
		isInt bool
	}{{"x", 3.5, false}, {"m", 4, true}, {"k", 3, true}, {"j", -4, true}, {"y", 8, true}} {
		got, ok := e.cp.ValueConst(e.s.DefOf[assign(e.p, c.name, 0)])
		if !ok || got.Float() != c.want || got.IsInt != c.isInt {
			t.Errorf("%s = %+v ok=%v, want %v (integer: %v)", c.name, got, ok, c.want, c.isInt)
		}
	}
}

// TestInductionIncrementFolds: the increment is whatever contribution of the
// sum update folds to an integer, not only a literal.
func TestInductionIncrementFolds(t *testing.T) {
	e := mkEnv(t, `
program t
parameter n = 10
real d(4*n)
integer i, m
m = 0
do i = 1, n
  m = m + 2*2
  d(m) = 1.0
end do
end
`)
	ivs := FindInductionVars(e.p, e.s, e.cp)
	if len(ivs) != 1 || ivs[0].Incr != 4 {
		t.Fatalf("induction variables = %+v, want m with increment 4", ivs)
	}
	if got := ast.ExprString(ivs[0].ClosedForm); got != "(4 * i)" {
		t.Errorf("closed form = %s, want (4 * i)", got)
	}
}
