package core

import (
	"phpf/internal/dataflow"
	"phpf/internal/dist"
	"phpf/internal/ir"
	"phpf/internal/pass"
	"phpf/internal/ssa"
)

// analyzer carries the state of one mapping pass.
type analyzer struct {
	prog *ir.Program
	ssa  *ssa.SSA
	m    *dist.Mapping
	opts Options
	res  *Result

	// inProgress guards the recursive consumer-mapping invocation.
	inProgress map[*ssa.Value]bool
	// noAlignExam is the paper's deferred list: definitions eligible for
	// privatization without alignment, re-examined at the end of the pass.
	noAlignExam []*ssa.Value
}

// Analyze is the body of the pipeline's analyze pass: the complete mapping
// pass over the unit's program, whose induction variables have already been
// rewritten (see dataflow.ApplyInductionRewrites), over the SSA rebuilt
// afterwards, with the privatization facts the autopriv pass left on the
// loops and the reductions the reduceplan pass classified.
func Analyze(u *pass.Unit, opts Options) *Result {
	p, s, m := u.Prog, u.SSA, u.Mapping
	a := &analyzer{
		prog: p, ssa: s, m: m, opts: opts,
		inProgress: map[*ssa.Value]bool{},
		res: &Result{
			Prog: p, SSA: s, Mapping: m, Opts: opts,
			Scalars:    map[*ssa.Value]*ScalarMapping{},
			Arrays:     map[*ir.Var]*ArrayPrivatization{},
			Ctrl:       map[*ir.Stmt]*CtrlMapping{},
			Inductions: u.Inductions,
			Reductions: u.Reductions(),
			ReducePlan: u.ReducePlan,
			Priv:       u.AutoPriv,
		},
	}
	a.res.pats, a.res.repl = make([]dist.OwnerPattern, len(p.Refs)), dist.ReplicatedPattern(m.Grid)

	// 1. Array privatization (§3) — before scalars, so that scalar
	// consumer/producer selection sees privatized array mappings.
	if opts.PrivatizeArrays {
		a.privatizeArrays()
	}

	// 2. Reductions (§2.3). Reduction accumulators are handled outside the
	// Figure-3 algorithm in either case: mapped per §2.3 when the
	// optimization is on, replicated when it is off (the Table 2 "Default"
	// configuration).
	for _, red := range a.res.Reductions {
		if opts.AlignReductions {
			a.mapReduction(red)
		} else if def := s.DefOf[red.Stmt]; def != nil && a.res.Scalars[def] == nil {
			m := a.replicatedMapping(def)
			a.record(def, m)
			a.propagateToSiblings(def, m)
		}
	}

	// 3. Scalar mappings (§2.2), in program order.
	if opts.Scalars != ScalarsReplicated {
		for _, st := range p.Stmts {
			if st.Kind != ir.SAssign || st.Lhs.Var.IsArray() {
				continue
			}
			def := s.DefOf[st]
			if def == nil || a.res.Scalars[def] != nil {
				continue
			}
			a.determineScalar(def)
		}
		// Final pass over the deferred no-alignment list: privatize without
		// alignment those whose rhs data is still replicated.
		a.finalizeNoAlign()
	}
	// Every remaining scalar definition gets the default mapping.
	for _, st := range p.Stmts {
		if st.Kind != ir.SAssign || st.Lhs.Var.IsArray() {
			continue
		}
		if def := s.DefOf[st]; def != nil && a.res.Scalars[def] == nil {
			a.record(def, a.replicatedMapping(def))
		}
	}

	// 4. Control flow statements (§4).
	if opts.PrivatizeControlFlow {
		a.mapControlFlow()
	}

	return a.res
}

// record installs a mapping for def.
func (a *analyzer) record(def *ssa.Value, m *ScalarMapping) {
	m.Def = def
	a.res.Scalars[def] = m
}

// replicatedMapping is the default decision.
func (a *analyzer) replicatedMapping(def *ssa.Value) *ScalarMapping {
	return &ScalarMapping{Def: def, Kind: ScalarReplicated,
		Pattern: a.res.repl}
}

// finalizeNoAlign re-examines the deferred list (end of Figure 3's
// description): if all rhs data on the defining statement is still
// replicated, the definition is privatized without alignment, overriding any
// alignment recorded earlier.
func (a *analyzer) finalizeNoAlign() {
	for _, def := range a.noAlignExam {
		if !a.isRhsReplicated(def.Stmt) {
			continue
		}
		m := a.res.Scalars[def]
		if m == nil {
			m = a.replicatedMapping(def)
			a.record(def, m)
		}
		m.Kind = ScalarNoAlign
		m.Target = nil
		m.Pattern = a.res.repl
		if m.PrivLoop == nil {
			m.PrivLoop = dataflow.PrivatizationLevel(a.ssa, def)
			if m.PrivLoop == nil {
				m.PrivLoop = def.Stmt.Loop
			}
		}
	}
}

// isRhsReplicated reports whether every rhs datum of the statement is
// replicated under the current (possibly partial) decisions. Loop indices
// and constants are implicitly replicated.
func (a *analyzer) isRhsReplicated(st *ir.Stmt) bool {
	for _, u := range st.Uses {
		if u.IsDef {
			continue
		}
		// Uses inside the LHS subscript are not rhs data.
		if u.InSubscript && u.EnclosingRef == st.Lhs {
			continue
		}
		if !a.res.RefPattern(u).IsReplicated() {
			return false
		}
	}
	return true
}
