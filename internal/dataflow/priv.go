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

// PrivatizationLevel returns the outermost loop level l such that def is
// privatizable with respect to its enclosing loop at level l, together with
// that loop. Returns (0, nil) when the definition is not privatizable with
// respect to any enclosing loop.
//
// Privatizability is monotone in nesting: privatizable at level l implies
// privatizable at every shallower enclosing loop that still contains all
// uses; we simply scan from the outermost loop inward.
func PrivatizationLevel(s *ssa.SSA, def *ssa.Value) (int, *ir.Loop) {
	if def == nil || def.Kind != ssa.VDef || def.Stmt.Loop == nil {
		return 0, nil
	}
	// Collect enclosing loops outermost-first.
	var chain []*ir.Loop
	for l := def.Stmt.Loop; l != nil; l = l.Parent {
		chain = append([]*ir.Loop{l}, chain...)
	}
	for _, l := range chain {
		if Privatizable(s, def, l) {
			return l.Level, l
		}
	}
	return 0, nil
}
