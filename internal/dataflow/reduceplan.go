// The reduceplan decision: which recognized reductions the runtime may
// execute through privatized per-processor partials merged in a
// deterministic tree at loop exit, and which must stay on the collective
// path. The classification is static (it rides the compiled program); the
// strategy actually used is a runtime knob, so one compiled program serves
// both paths and the differential oracle can compare them.
package dataflow

import (
	"fmt"

	"phpf/internal/ir"
)

// ReduceDecision classifies one recognized reduction.
type ReduceDecision struct {
	Red *Reduction
	// Privatizable: the runtime may accumulate this reduction into private
	// per-processor partials and merge them once at the outermost carrier
	// loop's exit without changing the program's meaning.
	Privatizable bool
	// Reason says why not, when !Privatizable.
	Reason string
}

// ReducePlan is the classification of every recognized reduction.
type ReducePlan struct {
	Decisions []*ReduceDecision
	ByStmt    map[*ir.Stmt]*ReduceDecision
}

// Of returns the decision for a reduction's update statement (nil when the
// statement is not a recognized reduction).
func (rp *ReducePlan) Of(st *ir.Stmt) *ReduceDecision {
	if rp == nil {
		return nil
	}
	return rp.ByStmt[st]
}

// PlanReductions classifies every recognized reduction as privatizable or
// collective-only. A reduction is privatizable when its update has an
// extractable contribution expression (no maxloc coupling, no conditional
// update) and the accumulator is touched by no other statement inside the
// outermost carrier loop — the region over which partials defer the real
// value, so any intermediate read or redefinition there would observe a
// stale accumulator.
func PlanReductions(p *ir.Program, reds []*Reduction) *ReducePlan {
	rp := &ReducePlan{ByStmt: map[*ir.Stmt]*ReduceDecision{}}
	for _, red := range reds {
		d := &ReduceDecision{Red: red}
		switch {
		case red.Op == RedMaxLoc || red.Companion != nil:
			d.Reason = "maxloc couples the value with its location"
		case red.Data == nil:
			d.Reason = "conditional update has no extractable contribution"
		case !accumulatorExclusive(p, red):
			d.Reason = fmt.Sprintf("accumulator %s is read or redefined inside the %s-loop",
				red.Var.Name, red.Loops[len(red.Loops)-1].Index.Name)
		default:
			d.Privatizable = true
		}
		rp.Decisions = append(rp.Decisions, d)
		rp.ByStmt[red.Stmt] = d
	}
	return rp
}

// accumulatorExclusive reports whether the update statement is the only
// statement referencing the accumulator inside the outermost carrier loop.
// Array reductions established this during recognition (their carrier loops
// are defined by it); scalar carrier loops come from SSA back-edge flow,
// which does not forbid intermediate reads, so they are re-checked here.
func accumulatorExclusive(p *ir.Program, red *Reduction) bool {
	outer := red.Loops[len(red.Loops)-1]
	for _, st2 := range p.Stmts {
		if st2 == red.Stmt || !ir.Encloses(outer, st2.Loop) {
			continue
		}
		if st2.Lhs != nil && st2.Lhs.Var == red.Var {
			return false
		}
		for _, u := range st2.Uses {
			if u.Var == red.Var {
				return false
			}
		}
	}
	return true
}
