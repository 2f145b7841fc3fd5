package ir

import (
	"testing"

	"phpf/internal/ast"
)

// TestAssignSlots pins the slot-numbering contract the interpreter's
// slot-indexed state relies on: declaration order, density, idempotence, and
// the 1-based slot cache on every evaluable expression reference.
func TestAssignSlots(t *testing.T) {
	p := build(t, `
program t
parameter n = 8
real a(n), b(n)
real x
integer i
do i = 1, n
  x = b(i) * 2.0
  a(i) = x + b(i)
end do
end
`)
	tab := AssignSlots(p)
	if len(tab.Vars) != len(p.VarList) {
		t.Fatalf("%d slots, want %d", len(tab.Vars), len(p.VarList))
	}
	for i, v := range p.VarList {
		if v.Slot != int32(i) {
			t.Errorf("var %s has slot %d, want declaration index %d", v.Name, v.Slot, i)
		}
		if tab.Vars[i] != v {
			t.Errorf("table slot %d holds %v, want %s", i, tab.Vars[i], v.Name)
		}
	}
	// Idempotent: a second run keeps the same table.
	if again := AssignSlots(p); again != tab {
		t.Error("AssignSlots is not idempotent")
	}
	// Every reference the interpreter evaluates carries its 1-based slot.
	var check func(e ast.Expr)
	check = func(e ast.Expr) {
		switch x := e.(type) {
		case nil:
		case *ast.Ref:
			v := p.Vars[x.Name]
			if v == nil {
				return
			}
			if x.Slot != v.Slot+1 {
				t.Errorf("ref %s carries slot %d, want %d", x.Name, x.Slot, v.Slot+1)
			}
			for _, sub := range x.Subs {
				check(sub)
			}
		case *ast.BinOp:
			check(x.L)
			check(x.R)
		case *ast.UnaryMinus:
			check(x.X)
		case *ast.Call:
			for _, a := range x.Args {
				check(a)
			}
		}
	}
	for _, st := range p.Stmts {
		if st.Lhs != nil {
			check(st.Lhs.Ast)
		}
		check(st.Rhs)
		check(st.Cond)
	}
	for _, l := range p.Loops {
		check(l.Lo.Expr)
		check(l.Hi.Expr)
		check(l.Step)
	}
}
