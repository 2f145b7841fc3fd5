package eval_test

import (
	"testing"

	"phpf/internal/ast"
	"phpf/internal/core"
	"phpf/internal/eval"
	"phpf/internal/ir"
)

// handBuilt has an assignment at top level and one in a loop whose flat body
// runs as owner runs; TestHandBuiltTrees replaces either's right-hand side.
const handBuilt = `
program h
parameter n = 12
real a(n), b(n), c(n), x
integer i
!hpf$ distribute (block) :: a
!hpf$ align b(i) with a(i)
!hpf$ align c(i) with a(i)
x = 2.5
do i = 1, n
  a(i) = i * 0.5
end do
x = x + a(3)
do i = 1, n
  b(i) = a(i) - x
  c(i) = b(i) * 2.0
end do
end
`

// TestHandBuiltTrees holds the lowering to its contract for a tree the parser
// never writes: it fails when — and only when — execution reaches it, with the
// oracle's error at the oracle's instance, having charged the same clocks and
// left the same memory; and an intrinsic applied in a shape without an element
// function computes what ast.Intrinsics says. Lowering is lazy, so a
// right-hand side replaced after compiling is what gets lowered.
func TestHandBuiltTrees(t *testing.T) {
	cases := []struct {
		name, err string // err: the run's error ("": none)
		rhs       func(l, r ast.Expr) ast.Expr
	}{
		{"unknown-variable", "unknown variable nosuch", func(l, r ast.Expr) ast.Expr {
			return &ast.BinOp{Op: ast.Add, L: l, R: &ast.Ref{Name: "nosuch"}}
		}},
		{"nil", "unsupported expression <nil>", func(l, r ast.Expr) ast.Expr { return nil }},
		{"bad-operator", "bad operator", func(l, r ast.Expr) ast.Expr { return &ast.BinOp{Op: ast.Op(99), L: l, R: r} }},
		{"unknown-intrinsic", "unknown intrinsic nosuch", func(l, r ast.Expr) ast.Expr {
			return &ast.Call{Name: "nosuch", Args: []ast.Expr{l, r}}
		}},
		{"abs-of-two", "", func(l, r ast.Expr) ast.Expr {
			return &ast.BinOp{Op: ast.Mul, L: r, R: &ast.Call{Name: "abs", Args: []ast.Expr{l, r}}}
		}},
		{"max-of-one", "", func(l, r ast.Expr) ast.Expr { return &ast.Call{Name: "max", Args: []ast.Expr{r}} }},
		{"abs-of-none", "abs of no arguments", func(l, r ast.Expr) ast.Expr { return &ast.Call{Name: "abs"} }},
		{"max-of-none", "max of no arguments", func(l, r ast.Expr) ast.Expr {
			return &ast.BinOp{Op: ast.Add, L: l, R: &ast.Call{Name: "max"}}
		}},
	}
	for _, tc := range cases {
		for _, where := range []string{"top", "loop"} {
			t.Run(tc.name+"/"+where, func(t *testing.T) {
				p := compileOpts(t, handBuilt, 4, core.DefaultOptions())
				var st *ir.Stmt
				for _, s := range p.Res.Prog.Stmts {
					if s.Kind == ir.SAssign && s.Line == map[string]int{"top": 13, "loop": 15}[where] {
						st = s
					}
				}
				bin, ok := st.Rhs.(*ast.BinOp)
				if !ok {
					t.Fatalf("line %d is not the assignment the case replaces", st.Line)
				}
				st.Rhs = tc.rhs(bin.L, bin.R)
				diffOne(t, p, core.ReduceAuto)
				if _, err := eval.OracleSimulate(p, core.ReduceAuto); err == nil && tc.err != "" || err != nil && err.Error() != tc.err {
					t.Errorf("the run ends in %v, want %q", err, tc.err)
				}
			})
		}
	}
}
