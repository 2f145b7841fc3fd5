package dataflow

import (
	"phpf/internal/ir"
	"phpf/internal/ssa"
)

// Privatizable reports whether the scalar definition def is privatizable
// (without copy-out) with respect to loop L: the defined value is consumed
// entirely within the same iteration of L — no reached use lies outside L
// and no def→use path crosses L's back edge.
//
// Per the paper, this is the data-flow test behind IsPrivatizable in Figure
// 3; the NEW clause of an INDEPENDENT directive can assert it when analysis
// cannot prove it (handled by the caller).
func Privatizable(s *ssa.SSA, def *ssa.Value, L *ir.Loop) bool {
	if def == nil || def.Kind != ssa.VDef || L == nil {
		return false
	}
	if !ir.Encloses(L, def.Stmt.Loop) {
		return false
	}
	for _, ru := range s.ReachedUses(def) {
		if !ir.Encloses(L, ru.Ref.Stmt.Loop) {
			return false // live outside the loop
		}
		if ru.CrossesBackOf.Has(L) {
			return false // carried into a later iteration
		}
	}
	return true
}

// PrivatizationLevel returns the enclosing loop at def's privatization
// level: the outermost loop with respect to which def is privatizable, nil
// when there is none.
func PrivatizationLevel(s *ssa.SSA, def *ssa.Value) *ir.Loop {
	if def == nil || def.Kind != ssa.VDef {
		return nil
	}
	var out *ir.Loop
	for l := def.Stmt.Loop; l != nil; l = l.Parent {
		if Privatizable(s, def, l) {
			out = l
		}
	}
	return out
}
