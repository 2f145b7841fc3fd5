package ir

import (
	"testing"

	"phpf/internal/ast"
)

func TestVarSize(t *testing.T) {
	p := build(t, `
program t
parameter n = 4
real a(n,n,2)
real x
a(1,1,1) = x
end
`)
	if s := p.LookupVar("a").Size(); s != 32 {
		t.Errorf("size = %d, want 32", s)
	}
	if s := p.LookupVar("x").Size(); s != 1 {
		t.Errorf("scalar size = %d, want 1", s)
	}
}

func TestConstExprDims(t *testing.T) {
	p := build(t, `
program t
parameter n = 6
real a(n*2, n-1, (n+2)/2, -(-n))
a(1,1,1,1) = 0.0
end
`)
	a := p.LookupVar("a")
	want := []int64{12, 5, 4, 6}
	for i, w := range want {
		if a.Dims[i] != w {
			t.Errorf("dim %d = %d, want %d", i, a.Dims[i], w)
		}
	}
}

func TestAffineStringForms(t *testing.T) {
	p := build(t, `
program t
parameter n = 10
real a(n,n)
real s
integer i, j
do i = 1, n
  do j = 1, n
    s = a(1,1)
    a(2*i, j) = a(i+j, s)
  end do
end do
end
`)
	var asn *Stmt
	for _, st := range p.Stmts {
		if st.Kind == SAssign && st.Lhs.Var.Name == "a" {
			asn = st
		}
	}
	if got := asn.Lhs.Subs[0].String(); got != "2*i" {
		t.Errorf("sub = %q", got)
	}
	// Non-affine subscript renders with a nonaffine marker.
	var rhs *Ref
	for _, u := range asn.Uses {
		if u.Var.IsArray() {
			rhs = u
		}
	}
	if got := rhs.Subs[1].String(); got != "nonaffine(s)" {
		t.Errorf("nonaffine sub = %q", got)
	}
	// Constant-only form.
	zero := AnalyzeAffine(&ast.IntConst{Value: 0}, nil, nil)
	if zero.String() != "0" {
		t.Errorf("zero = %q", zero.String())
	}
	neg := AnalyzeAffine(&ast.UnaryMinus{X: &ast.Ref{Name: "i"}}, asn.Loop, nil)
	if neg.String() != "-i" {
		t.Errorf("neg = %q", neg.String())
	}
}

func TestStmtKindStrings(t *testing.T) {
	kinds := map[StmtKind]string{
		SAssign: "assign", SIf: "if", SIfGoto: "ifgoto", SGoto: "goto",
		SContinue: "continue", SRedistribute: "redistribute",
		SLoopBounds: "loopbounds",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if StmtKind(99).String() != "?" {
		t.Error("unknown kind")
	}
}

func TestRefString(t *testing.T) {
	p := build(t, figure1)
	for _, r := range p.Refs {
		if r.Var.Name == "a" && r.IsDef {
			if r.String() != "a((i + 1))" {
				t.Errorf("ref string = %q", r.String())
			}
		}
	}
}

func TestBuildErrorMessage(t *testing.T) {
	err := buildErr(t, "program t\nq = 1\nend\n")
	if err.Error() != "2:1: error: ir: undeclared variable q [E003]" {
		t.Errorf("error = %q", err.Error())
	}
}

// TestNestedIfDeepDependence verifies EnclosingIfs ordering (outermost
// first) through two levels.
func TestNestedIfDeepDependence(t *testing.T) {
	p := build(t, `
program t
parameter n = 8
real a(n), b(n)
integer i
do i = 1, n
  if (b(i) > 0.0) then
    if (b(i) > 1.0) then
      a(i) = 2.0
    end if
  end if
end do
end
`)
	var asn *Stmt
	var ifs []*Stmt
	for _, st := range p.Stmts {
		if st.Kind == SAssign && st.Lhs.Var.Name == "a" {
			asn = st
		}
		if st.Kind == SIf {
			ifs = append(ifs, st)
		}
	}
	if len(asn.EnclosingIfs) != 2 {
		t.Fatalf("enclosing ifs = %d, want 2", len(asn.EnclosingIfs))
	}
	if asn.EnclosingIfs[0] != ifs[0] || asn.EnclosingIfs[1] != ifs[1] {
		t.Error("enclosing ifs not outermost-first")
	}
	// The inner if is control dependent on the outer.
	if len(ifs[1].EnclosingIfs) != 1 || ifs[1].EnclosingIfs[0] != ifs[0] {
		t.Error("inner if missing control dependence")
	}
}
