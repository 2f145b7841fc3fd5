package ir

import (
	"testing"

	"phpf/internal/ast"
	"phpf/internal/parser"
)

func build(t *testing.T, src string) *Program {
	t.Helper()
	ap, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := Build(ap)
	if err != nil {
		t.Fatalf("ir.Build: %v", err)
	}
	return p
}

func buildErr(t *testing.T, src string) error {
	t.Helper()
	ap, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Build(ap)
	if err == nil {
		t.Fatalf("expected ir.Build error for:\n%s", src)
	}
	return err
}

const figure1 = `
program figure1
parameter n = 100
real a(n), b(n), c(n), d(n), e(n), f(n)
real x, y, z
integer i, m
!hpf$ align (i) with a(i) :: b, c, d
!hpf$ align (i) with a(*) :: e, f
!hpf$ distribute (block) :: a
m = 2
do i = 2, n-1
  m = m + 1
  x = b(i) + c(i)
  y = a(i) + b(i)
  z = e(i) + f(i)
  a(i+1) = y / z
  d(m) = x / z
end do
end
`

func TestBuildFigure1(t *testing.T) {
	p := build(t, figure1)
	if len(p.Loops) != 1 {
		t.Fatalf("got %d loops", len(p.Loops))
	}
	loop := p.Loops[0]
	if loop.Level != 1 || loop.Index.Name != "i" {
		t.Errorf("loop = %+v", loop)
	}
	if !loop.Index.IsLoopIndex {
		t.Error("i not marked as loop index")
	}
	// 7 assignments total (m=2 outside + 6 inside).
	if len(p.Stmts) != 7 {
		t.Errorf("got %d statements, want 7", len(p.Stmts))
	}
	// a has evaluated dims.
	a := p.LookupVar("a")
	if a == nil || len(a.Dims) != 1 || a.Dims[0] != 100 {
		t.Errorf("a = %+v", a)
	}
	// m's DefLoops includes the i-loop (m=m+1 inside).
	m := p.LookupVar("m")
	if !m.DefLoops[loop] {
		t.Error("m.DefLoops missing the i-loop")
	}
	// Parameter n substituted everywhere: loop bound is (100 - 1).
	hi := ast.ExprString(loop.Hi.Expr)
	if hi != "(100 - 1)" {
		t.Errorf("loop.Hi = %s", hi)
	}
}

func TestBuildRefsAndUses(t *testing.T) {
	p := build(t, figure1)
	// Statement "a(i+1) = y / z": lhs def + 2 uses.
	var s *Stmt
	for _, st := range p.Stmts {
		if st.Kind == SAssign && st.Lhs.Var.Name == "a" {
			s = st
		}
	}
	if s == nil {
		t.Fatal("assignment to a not found")
	}
	if !s.Lhs.IsDef {
		t.Error("lhs not marked def")
	}
	if len(s.Uses) != 2 {
		t.Errorf("got %d uses, want 2 (y, z)", len(s.Uses))
	}
	if len(s.Refs) != 3 || s.Refs[0] != s.Lhs {
		t.Errorf("Refs = %v", s.Refs)
	}
	// Subscript affine analysis of a(i+1).
	sub := s.Lhs.Subs[0]
	if !sub.OK || sub.Const != 1 || len(sub.Terms) != 1 || sub.Terms[0].Coef != 1 {
		t.Errorf("a(i+1) subscript = %+v", sub)
	}
}

func TestBuildSubscriptUseTracking(t *testing.T) {
	src := `
program t
parameter n = 8
real a(n), d(n)
integer i, m
m = 1
do i = 1, n
  d(m) = a(i)
end do
end
`
	p := build(t, src)
	var s *Stmt
	for _, st := range p.Stmts {
		if st.Kind == SAssign && st.Lhs != nil && st.Lhs.Var.Name == "d" {
			s = st
		}
	}
	// Uses of the d(m) statement: m (inside lhs subscript) and a(i) and i.
	var mUse *Ref
	for _, u := range s.Uses {
		if u.Var.Name == "m" {
			mUse = u
		}
	}
	if mUse == nil {
		t.Fatal("use of m in subscript not tracked")
	}
	if !mUse.InSubscript || mUse.EnclosingRef == nil || mUse.EnclosingRef.Var.Name != "d" {
		t.Errorf("m use = %+v", mUse)
	}
	// d(m)'s subscript is non-affine with scalar m recorded.
	sub := s.Lhs.Subs[0]
	if sub.OK {
		t.Error("d(m) subscript should be non-affine")
	}
	if len(sub.Scalars) != 1 || sub.Scalars[0].Name != "m" {
		t.Errorf("scalars = %v", sub.Scalars)
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"undeclared", "program t\nx = 1\nend\n"},
		{"dup decl", "program t\nreal x\ninteger x\nx = 1\nend\n"},
		{"rank mismatch", "program t\nreal a(4,4)\na(1) = 0.0\nend\n"},
		{"scalar subscripted", "program t\nreal x\nx(1) = 0.0\nend\n"},
		{"assign loop index", "program t\ninteger i\nreal a(5)\ndo i = 1, 5\ni = 2\nend do\nend\n"},
		{"reused index", "program t\ninteger i\nreal a(5)\ndo i = 1, 5\ndo i = 1, 5\na(i) = 0.0\nend do\nend do\nend\n"},
		{"bad goto", "program t\nreal x\ngoto 99\nx = 1.0\nend\n"},
		{"new undeclared", "program t\ninteger i\nreal a(5)\n!hpf$ independent, new(q)\ndo i = 1, 5\na(i) = 0.0\nend do\nend\n"},
		{"bad extent", "program t\nparameter n = 0\nreal a(n)\na(1) = 0.0\nend\n"},
		{"param subscripted", "program t\nparameter n = 4\nreal a(4)\na(1) = n(2)\nend\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { buildErr(t, c.src) })
	}
}

func TestNestingLevels(t *testing.T) {
	src := `
program fig4
parameter n = 8
real a(n,n,n), b(n,n,n)
real s
integer i, j, k
!hpf$ distribute (block,block,*) :: a, b
do i = 1, n
  do j = 1, n
    s = a(i,j,1)
    do k = 1, n
      a(i,j,k) = 1.0
      b(s,j,k) = 2.0
    end do
  end do
end do
end
`
	p := build(t, src)
	if len(p.Loops) != 3 {
		t.Fatalf("got %d loops", len(p.Loops))
	}
	for i, want := range []int{1, 2, 3} {
		if p.Loops[i].Level != want {
			t.Errorf("loop %d level = %d, want %d", i, p.Loops[i].Level, want)
		}
	}
	if p.Loops[2].Parent != p.Loops[1] || p.Loops[1].Parent != p.Loops[0] {
		t.Error("parent chain wrong")
	}
}

// TestFigure4SubscriptAlignLevels checks the paper's Figure 4 example:
// SubscriptAlignLevel(s) = 3 (non-affine, varies at level 2),
// for i and j it equals their loop levels.
func TestFigure4SubscriptAlignLevels(t *testing.T) {
	src := `
program fig4
parameter n = 8
real a(n,n,n), b(n,n,n)
real s
integer i, j, k
do i = 1, n
  do j = 1, n
    s = a(i,j,1)
    do k = 1, n
      a(i,j,k) = 1.0
      b(s,j,k) = 2.0
    end do
  end do
end do
end
`
	p := build(t, src)
	var aDef, bDef *Stmt
	for _, st := range p.Stmts {
		if st.Kind != SAssign {
			continue
		}
		switch st.Lhs.Var.Name {
		case "a":
			if st.Loop.Level == 3 {
				aDef = st
			}
		case "b":
			bDef = st
		}
	}
	if aDef == nil || bDef == nil {
		t.Fatal("statements not found")
	}
	// A(i,j,k): SAL(i)=1, SAL(j)=2, SAL(k)=3.
	for dim, want := range []int{1, 2, 3} {
		if got := SubscriptAlignLevel(aDef.Lhs.Subs[dim], aDef); got != want {
			t.Errorf("SAL(a sub %d) = %d, want %d", dim, got, want)
		}
	}
	// B(s,j,k): s is non-affine and varies at level 2 (assigned in j-loop),
	// so SAL(s) = 3.
	if got := SubscriptAlignLevel(bDef.Lhs.Subs[0], bDef); got != 3 {
		t.Errorf("SAL(b sub s) = %d, want 3", got)
	}
	if got := VarLevel(bDef.Lhs.Subs[0], bDef); got != 2 {
		t.Errorf("VarLevel(s) = %d, want 2", got)
	}
}

func TestControlDependenceMarking(t *testing.T) {
	src := `
program f7
parameter n = 16
real a(n), b(n), c(n)
integer i
do i = 1, n
  if (b(i) /= 0.0) then
    a(i) = a(i) / b(i)
    if (b(i) < 0.0) goto 100
  else
    a(i) = c(i)
  end if
100 continue
end do
end
`
	p := build(t, src)
	var inner *Stmt
	var outerIf *Stmt
	for _, st := range p.Stmts {
		if st.Kind == SIfGoto {
			inner = st
		}
		if st.Kind == SIf {
			outerIf = st
		}
	}
	if inner == nil || outerIf == nil {
		t.Fatal("statements not found")
	}
	if len(inner.EnclosingIfs) != 1 || inner.EnclosingIfs[0] != outerIf {
		t.Errorf("inner.EnclosingIfs = %v", inner.EnclosingIfs)
	}
}

func TestAffineForms(t *testing.T) {
	src := `
program t
parameter n = 10
real a(n,n)
integer i, j
do i = 1, n
  do j = 1, n
    a(2*i+1, j-3) = a(i+j, (4*j)/2)
  end do
end do
end
`
	p := build(t, src)
	var s *Stmt
	for _, st := range p.Stmts {
		if st.Kind == SAssign {
			s = st
		}
	}
	lhs := s.Lhs
	if got := lhs.Subs[0].String(); got != "2*i+1" {
		t.Errorf("sub0 = %s", got)
	}
	if got := lhs.Subs[1].String(); got != "j+-3" {
		t.Errorf("sub1 = %s", got)
	}
	rhs := s.Uses[0]
	if rhs.Var.Name != "a" {
		t.Fatalf("first use = %v", rhs)
	}
	// i+j: two terms.
	if len(rhs.Subs[0].Terms) != 2 {
		t.Errorf("a(i+j,...) terms = %v", rhs.Subs[0].Terms)
	}
	// (4*j)/2 folds to 2*j.
	if got := rhs.Subs[1].String(); got != "2*j" {
		t.Errorf("sub (4*j)/2 = %s", got)
	}
}

func TestInnermostCommonLoop(t *testing.T) {
	src := `
program t
parameter n = 4
real a(n)
integer i, j, k
do i = 1, n
  do j = 1, n
    a(j) = 0.0
  end do
  do k = 1, n
    a(k) = 1.0
  end do
end do
end
`
	p := build(t, src)
	iL, jL, kL := p.Loops[0], p.Loops[1], p.Loops[2]
	if got := InnermostCommonLoop(jL, kL); got != iL {
		t.Errorf("ICL(j,k) = %v", got)
	}
	if got := InnermostCommonLoop(jL, jL); got != jL {
		t.Errorf("ICL(j,j) = %v", got)
	}
	if got := InnermostCommonLoop(jL, nil); got != nil {
		t.Errorf("ICL(j,nil) = %v", got)
	}
	if !Encloses(iL, kL) || Encloses(kL, iL) || !Encloses(nil, iL) {
		t.Error("Encloses wrong")
	}
}
