package ir

import "phpf/internal/ast"

// SlotTable is the dense numbering of a program's variables: slot i is
// Vars[i], and Vars[i].Slot == i. Slots follow declaration order
// (Program.VarList), so the numbering is deterministic across rebuilds of
// the same source. The interpreter replaces its pointer-keyed value maps
// with flat slices indexed by slot; the slots pass in the compilation
// pipeline builds the table once the IR is in its final shape.
type SlotTable struct {
	Vars []*Var
}

// AssignSlots tables the program's variables by the slot the IR builder gave
// each (Var.Slot) and caches the slot on every expression reference
// (ast.Ref.Slot, 1-based so the zero value means "unassigned"). It is
// idempotent: a program that already carries a table keeps it. The call
// mutates the program and is not safe to run concurrently with other users
// of the same program; run it from the pipeline (or any other
// single-threaded consumer) before execution.
func AssignSlots(p *Program) *SlotTable {
	if p.Slots != nil {
		return p.Slots
	}
	t := &SlotTable{Vars: p.VarList}
	// Cache slots on every reference the interpreter can evaluate: both
	// statement expressions and loop bounds. Loop-index references share
	// ast.Ref nodes between the IR reference list and the expressions, so
	// repeated visits are harmless (same variable, same slot).
	for _, st := range p.Stmts {
		if st.Lhs != nil {
			t.slotExpr(p, st.Lhs.Ast)
		}
		t.slotExpr(p, st.Rhs)
		t.slotExpr(p, st.Cond)
	}
	for _, l := range p.Loops {
		t.slotExpr(p, l.Lo.Expr)
		t.slotExpr(p, l.Hi.Expr)
		t.slotExpr(p, l.Step)
	}
	for _, r := range p.Refs {
		t.slotExpr(p, r.Ast)
	}
	p.Slots = t
	return t
}

// slotExpr stamps each reference of one expression tree with its variable's
// slot.
func (t *SlotTable) slotExpr(p *Program, e ast.Expr) {
	ast.Walk(e, func(n ast.Expr) {
		if x, ok := n.(*ast.Ref); ok {
			if v := p.Vars[x.Name]; v != nil {
				x.Slot = v.Slot + 1
			}
		}
	})
}
