package pass

import (
	"phpf/internal/dataflow"
	"phpf/internal/dist"
	"phpf/internal/ir"
	"phpf/internal/ssa"
)

// The steps core.Pipeline lists beside its own analyze step, in the order it
// lists them (AutoPriv is in autopriv.go).

// BuildIR lowers the parsed program into the flat IR.
func BuildIR(u *Unit) (err error) {
	u.Prog, err = ir.Build(u.Source)
	return err
}

// BuildCFG constructs the control flow graph.
func BuildCFG(u *Unit) (err error) {
	u.CFG, err = ir.BuildCFG(u.Prog)
	return err
}

// BuildSSA constructs scalar SSA form over the CFG.
func BuildSSA(u *Unit) error {
	u.SSA = ssa.Build(u.Prog, u.CFG)
	return nil
}

// ConstProp runs sparse constant propagation over the SSA values.
func ConstProp(u *Unit) error {
	u.Consts = dataflow.PropagateConstants(u.SSA)
	return nil
}

// Induction recognizes induction variables and rewrites their increments to
// closed form. Rewriting changes expressions the SSA use links hang off, so
// when it rewrote something the step drops the CFG, the SSA and the constants
// instead of rebuilding them inline — Run re-executes their steps before the
// next one, and the re-runs show up in the profile.
func Induction(u *Unit) error {
	u.Inductions = dataflow.FindInductionVars(u.Prog, u.SSA, u.Consts)
	if len(u.Inductions) > 0 && dataflow.ApplyInductionRewrites(u.Prog, u.SSA, u.Inductions) > 0 {
		u.CFG, u.SSA, u.Consts = nil, nil, nil
	}
	return nil
}

// ReducePlan recognizes the program's reductions over the induction-rewritten
// SSA and classifies each as privatizable or collective-only. It runs after
// autopriv so recognition and the exclusivity checks see the same rewritten
// program — with its inferred annotations — that the mapping pass consumes.
func ReducePlan(u *Unit) error {
	u.ReducePlan = dataflow.PlanReductions(u.Prog, u.Reductions())
	return nil
}

// Mapping resolves the distribution directives leniently: bad directives
// degrade to replication and surface as warning diagnostics.
func Mapping(u *Unit) error {
	m, probs, err := dist.ResolveLenient(u.Prog, u.NProcs)
	if err != nil {
		return err
	}
	u.Mapping = m
	for _, d := range probs {
		u.Diag(d)
	}
	return nil
}

// Slots numbers the program's variables densely (ir.AssignSlots) and caches
// the numbering on every expression reference. It runs at the end of the
// pipeline, after every pass that may rewrite expressions (induction closed
// forms, the analyze pass), so the cached slots describe the IR the
// interpreter will actually walk.
func Slots(u *Unit) error {
	ir.AssignSlots(u.Prog)
	return nil
}
