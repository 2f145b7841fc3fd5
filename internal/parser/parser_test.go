package parser

import (
	"strings"
	"testing"

	"phpf/internal/ast"
)

func parseOK(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse error: %v\nsource:\n%s", err, src)
	}
	return p
}

const figure1Src = `
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

func TestParseFigure1(t *testing.T) {
	p := parseOK(t, figure1Src)
	if p.Name != "figure1" {
		t.Errorf("name = %q", p.Name)
	}
	if len(p.Params) != 1 || p.Params[0].Name != "n" || p.Params[0].Value != 100 {
		t.Errorf("params = %+v", p.Params)
	}
	if len(p.Decls) != 11 {
		t.Errorf("got %d decls, want 11", len(p.Decls))
	}
	if len(p.Dirs) != 3 {
		t.Fatalf("got %d directives, want 3", len(p.Dirs))
	}
	al, ok := p.Dirs[0].(*ast.AlignDir)
	if !ok {
		t.Fatalf("dir 0 is %T, want AlignDir", p.Dirs[0])
	}
	if al.Target != "a" || len(al.Arrays) != 3 || al.Arrays[2] != "d" {
		t.Errorf("align dir = %+v", al)
	}
	al2 := p.Dirs[1].(*ast.AlignDir)
	if !al2.Subs[0].Star {
		t.Errorf("second align should target a(*), got %+v", al2.Subs)
	}
	dist, ok := p.Dirs[2].(*ast.DistributeDir)
	if !ok || dist.Formats[0].Kind != ast.DistBlock || dist.Arrays[0] != "a" {
		t.Errorf("distribute dir = %+v", p.Dirs[2])
	}
	if len(p.Body) != 2 {
		t.Fatalf("got %d body stmts, want 2 (m=2 and the do loop)", len(p.Body))
	}
	loop, ok := p.Body[1].(*ast.DoLoop)
	if !ok {
		t.Fatalf("body[1] is %T, want DoLoop", p.Body[1])
	}
	if loop.Var != "i" || len(loop.Body) != 6 {
		t.Errorf("loop var=%q body=%d stmts", loop.Var, len(loop.Body))
	}
}

func TestParseIndependentNew(t *testing.T) {
	src := `
program t
parameter n = 8
real c(n,n), r(n,n)
integer i, k
!hpf$ distribute (block,block) :: r
!hpf$ independent, new(c)
do k = 2, n-1
  c(k,1) = r(k,k)
end do
end
`
	p := parseOK(t, src)
	loop := p.Body[0].(*ast.DoLoop)
	if len(loop.Dirs) != 1 {
		t.Fatalf("got %d loop directives, want 1", len(loop.Dirs))
	}
	d := loop.Dirs[0]
	if !d.Independent || len(d.New) != 1 || d.New[0] != "c" {
		t.Errorf("loop directive = %+v", d)
	}
}

func TestParseNodeps(t *testing.T) {
	src := `
program t
real a(10)
real s
integer i
!hpf$ nodeps, new(s)
do i = 1, 10
  s = a(i)
  a(i) = s * 2.0
end do
end
`
	p := parseOK(t, src)
	loop := p.Body[0].(*ast.DoLoop)
	if !loop.Dirs[0].NoDeps || loop.Dirs[0].New[0] != "s" {
		t.Errorf("directive = %+v", loop.Dirs[0])
	}
}

func TestParseIfThenElseGoto(t *testing.T) {
	src := `
program f7
parameter n = 16
real a(n), b(n), c(n)
integer i
!hpf$ align (i) with a(i) :: b, c
!hpf$ distribute (block) :: a
do i = 1, n
  if (b(i) /= 0.0) then
    a(i) = a(i) / b(i)
    if (b(i) < 0.0) goto 100
  else
    a(i) = c(i)
    c(i) = c(i) * c(i)
  end if
100 continue
end do
end
`
	p := parseOK(t, src)
	loop := p.Body[0].(*ast.DoLoop)
	iff, ok := loop.Body[0].(*ast.If)
	if !ok {
		t.Fatalf("loop.Body[0] is %T, want If", loop.Body[0])
	}
	if len(iff.Then) != 2 || len(iff.Else) != 2 {
		t.Errorf("then=%d else=%d stmts", len(iff.Then), len(iff.Else))
	}
	ig, ok := iff.Then[1].(*ast.IfGoto)
	if !ok || ig.Label != 100 {
		t.Errorf("then[1] = %#v", iff.Then[1])
	}
	cont, ok := loop.Body[1].(*ast.Continue)
	if !ok || cont.Label != 100 {
		t.Errorf("loop.Body[1] = %#v", loop.Body[1])
	}
}

func TestParseLogicalIfAssign(t *testing.T) {
	src := `
program t
real x, y
if (x > 0.0) y = x
end
`
	p := parseOK(t, src)
	iff, ok := p.Body[0].(*ast.If)
	if !ok || len(iff.Then) != 1 || len(iff.Else) != 0 {
		t.Fatalf("body[0] = %#v", p.Body[0])
	}
}

func TestParseExprPrecedence(t *testing.T) {
	e, err := ParseExpr("a + b * c - d / 2")
	if err != nil {
		t.Fatal(err)
	}
	got := ast.ExprString(e)
	want := "((a + (b * c)) - (d / 2))"
	if got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}

func TestParseExprRelationalAndLogical(t *testing.T) {
	e, err := ParseExpr("a < b and not c >= d or x == y")
	if err != nil {
		t.Fatal(err)
	}
	got := ast.ExprString(e)
	want := "(((a < b) and (not (c >= d))) or (x == y))"
	if got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}

func TestParseIntrinsics(t *testing.T) {
	e, err := ParseExpr("max(abs(a(i)), b, 1.0)")
	if err != nil {
		t.Fatal(err)
	}
	c, ok := e.(*ast.Call)
	if !ok || c.Name != "max" || len(c.Args) != 3 {
		t.Fatalf("e = %#v", e)
	}
	if _, ok := c.Args[0].(*ast.Call); !ok {
		t.Errorf("args[0] = %#v, want Call(abs)", c.Args[0])
	}
}

func TestParseIntrinsicArityError(t *testing.T) {
	if _, err := ParseExpr("abs(a, b)"); err == nil {
		t.Error("expected arity error for abs(a,b)")
	}
	if _, err := ParseExpr("max(a)"); err == nil {
		t.Error("expected arity error for max(a)")
	}
}

func TestParseIntrinsicNameAsVariable(t *testing.T) {
	// An identifier matching an intrinsic name used without parentheses is a
	// plain variable.
	e, err := ParseExpr("abs + 1")
	if err != nil {
		t.Fatal(err)
	}
	b := e.(*ast.BinOp)
	if r, ok := b.L.(*ast.Ref); !ok || r.Name != "abs" {
		t.Errorf("lhs = %#v", b.L)
	}
}

func TestParseDoStep(t *testing.T) {
	src := `
program t
integer i
real a(20)
do i = 1, 19, 2
  a(i) = 0.0
end do
end
`
	p := parseOK(t, src)
	loop := p.Body[0].(*ast.DoLoop)
	if loop.Step == nil {
		t.Fatal("step is nil")
	}
	if got := ast.ExprString(loop.Step); got != "2" {
		t.Errorf("step = %s", got)
	}
}

func TestParseEnddoEndifSingleWord(t *testing.T) {
	src := "program t\ninteger i\nreal a(5)\ndo i = 1, 5\nif (a(i) > 0.0) then\na(i) = 0.0\nendif\nenddo\nend\n"
	parseOK(t, src)
}

func TestParseRedistribute(t *testing.T) {
	src := `
program t
real a(8,8)
!hpf$ distribute (block,*) :: a
!hpf$ redistribute a(*,block)
a(1,1) = 0.0
end
`
	p := parseOK(t, src)
	rd, ok := p.Body[0].(*ast.Redistribute)
	if !ok {
		t.Fatalf("body[0] = %T, want Redistribute", p.Body[0])
	}
	if rd.Array != "a" || rd.Formats[0].Kind != ast.DistNone || rd.Formats[1].Kind != ast.DistBlock {
		t.Errorf("redistribute = %+v", rd)
	}
}

func TestParseProcessors(t *testing.T) {
	src := `
program t
real a(8,8)
!hpf$ processors p(4,4)
!hpf$ distribute (block,block) :: a
a(1,1) = 0.0
end
`
	p := parseOK(t, src)
	pd, ok := p.Dirs[0].(*ast.ProcessorsDir)
	if !ok || pd.Name != "p" || len(pd.Extents) != 2 {
		t.Fatalf("dirs[0] = %#v", p.Dirs[0])
	}
}

func TestParseAlignColonForm(t *testing.T) {
	src := `
program t
real a(8), b(8), c(8)
!hpf$ align (:) with a(:) :: b, c
!hpf$ distribute (block) :: a
b(1) = 0.0
end
`
	p := parseOK(t, src)
	al := p.Dirs[0].(*ast.AlignDir)
	if al.Dummies[0] != ":" || al.Subs[0].Dummy != ":" {
		t.Errorf("align = %+v", al)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"program\nend\n",                              // missing name
		"program t\nx = \nend\n",                      // missing rhs
		"program t\ndo i = 1\nend do\nend\n",          // missing hi bound
		"program t\nif (x) then\nend\n",               // unterminated if (end consumed)
		"program t\n!hpf$ frobnicate\nend\n",          // unknown directive
		"program t\n!hpf$ independent\nx = 1\nend\n",  // independent without loop
		"program t\nend\nx = 1\n",                     // trailing junk
		"program t\ngoto x\nend\n",                    // bad goto target
		"program t\n!hpf$ align (i) with a(i)\nend\n", // align with no arrays
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected parse error for:\n%s", src)
		}
	}
}

func TestRoundTripThroughPrinter(t *testing.T) {
	p1 := parseOK(t, figure1Src)
	printed := ast.Print(p1)
	p2, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse of printed program failed: %v\n%s", err, printed)
	}
	printed2 := ast.Print(p2)
	if printed != printed2 {
		t.Errorf("printer not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", printed, printed2)
	}
	if !strings.Contains(printed, "do i = 2, (n - 1)") {
		t.Errorf("printed program missing loop header:\n%s", printed)
	}
}
