package pass

import (
	"phpf/internal/dataflow"
	"phpf/internal/dist"
	"phpf/internal/ir"
	"phpf/internal/ssa"
)

// IRBuild lowers the parsed program into the flat IR (FactIR).
func IRBuild() *Pass {
	return &Pass{
		Name:     "ir",
		Provides: []Fact{FactIR},
		Run: func(u *Unit) error {
			p, err := ir.Build(u.Source)
			if err != nil {
				return err
			}
			u.Prog = p
			return nil
		},
	}
}

// CFGBuild constructs the control flow graph (FactCFG).
func CFGBuild() *Pass {
	return &Pass{
		Name:     "cfg",
		Requires: []Fact{FactIR},
		Provides: []Fact{FactCFG},
		Run: func(u *Unit) error {
			g, err := ir.BuildCFG(u.Prog)
			if err != nil {
				return err
			}
			u.CFG = g
			return nil
		},
	}
}

// SSABuild constructs scalar SSA form (FactSSA).
func SSABuild() *Pass {
	return &Pass{
		Name:     "ssa",
		Requires: []Fact{FactIR, FactCFG},
		Provides: []Fact{FactSSA},
		Run: func(u *Unit) error {
			u.SSA = ssa.Build(u.Prog, u.CFG)
			return nil
		},
	}
}

// ConstProp runs sparse constant propagation (FactConsts).
func ConstProp() *Pass {
	return &Pass{
		Name:     "constprop",
		Requires: []Fact{FactSSA},
		Provides: []Fact{FactConsts},
		Run: func(u *Unit) error {
			u.Consts = dataflow.PropagateConstants(u.SSA)
			return nil
		},
	}
}

// Induction recognizes induction variables and rewrites their increments to
// closed form. Rewriting changes expressions the SSA use links hang off, so
// the pass invalidates FactCFG (and transitively SSA and Consts) instead of
// rebuilding inline — the manager re-runs the providers before the next pass
// that needs them, and the re-runs show up in the profile.
func Induction() *Pass {
	return &Pass{
		Name:        "induction",
		Requires:    []Fact{FactIR, FactSSA, FactConsts},
		Invalidates: []Fact{FactCFG},
		Run: func(u *Unit) error {
			ivs := dataflow.FindInductionVars(u.Prog, u.SSA, u.Consts)
			u.Inductions = ivs
			if len(ivs) > 0 && dataflow.ApplyInductionRewrites(u.Prog, u.SSA, ivs) > 0 {
				u.Invalidate(FactCFG)
			}
			return nil
		},
	}
}

// Slots numbers the program's variables densely (ir.AssignSlots) and caches
// the numbering on every expression reference. It runs at the end of the
// pipeline, after every pass that may rewrite expressions (induction closed
// forms, the analyze pass), so the cached slots describe the IR the
// interpreter will actually walk.
func Slots() *Pass {
	return &Pass{
		Name:     "slots",
		Requires: []Fact{FactIR},
		Run: func(u *Unit) error {
			ir.AssignSlots(u.Prog)
			return nil
		},
	}
}

// ReducePlan recognizes the program's reductions over the induction-rewritten
// SSA and classifies each as privatizable or collective-only
// (FactReducePlan). It runs after autopriv so recognition and the
// exclusivity checks see the same rewritten program — with its inferred
// annotations — that the mapping pass consumes.
func ReducePlan() *Pass {
	return &Pass{
		Name:     "reduceplan",
		Requires: []Fact{FactIR, FactSSA, FactAutoPriv},
		Provides: []Fact{FactReducePlan},
		Run: func(u *Unit) error {
			u.ReducePlan = dataflow.PlanReductions(u.Prog, u.Reductions())
			return nil
		},
	}
}

// Mapping resolves the distribution directives leniently (FactMapping):
// bad directives degrade to replication and surface as warning diagnostics.
func Mapping() *Pass {
	return &Pass{
		Name:     "mapping",
		Requires: []Fact{FactIR},
		Provides: []Fact{FactMapping},
		Run: func(u *Unit) error {
			m, probs, err := dist.ResolveLenient(u.Prog, u.NProcs)
			if err != nil {
				return err
			}
			u.Mapping = m
			for _, d := range probs {
				u.Diag(d)
			}
			return nil
		},
	}
}
