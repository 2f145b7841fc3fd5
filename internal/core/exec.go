package core

import (
	"phpf/internal/dist"
	"phpf/internal/ir"
	"phpf/internal/ssa"
)

// ExecKind describes how a statement's execution set is determined.
type ExecKind int

const (
	// ExecAll: every processor executes the statement.
	ExecAll ExecKind = iota
	// ExecOwner: the owners of OwnerRef execute (owner-computes).
	ExecOwner
	// ExecPattern: the processors matching the scalar mapping's pattern
	// (reduction results and their initializations).
	ExecPattern
	// ExecUnion: the union of processors executing the other statements of
	// the current iteration (privatization without alignment, privatized
	// control flow).
	ExecUnion
)

func (k ExecKind) String() string {
	switch k {
	case ExecAll:
		return "all"
	case ExecOwner:
		return "owner"
	case ExecPattern:
		return "pattern"
	case ExecUnion:
		return "union"
	}
	return "?"
}

// Exec is the execution-set decision for one statement: the one answer to
// "where does this statement run" that the selector (while the decisions are
// still being made), the communication planner (as the destination it
// classifies every reference against) and the SPMD generator (as the guard it
// emits) all read.
type Exec struct {
	Kind ExecKind
	// OwnerRef is the reference whose owners execute (ExecOwner): the lhs
	// for array assignments, the alignment target for aligned scalars, the
	// reduction data reference for reduction updates.
	OwnerRef *ir.Ref
	// Scalar is the mapping decision for scalar assignments (may be nil).
	Scalar *ScalarMapping
}

// ExecOf returns the execution-set decision for st under the decisions
// recorded so far (final once Analyze has returned).
func (r *Result) ExecOf(st *ir.Stmt) Exec {
	switch st.Kind {
	case ir.SAssign:
		if st.Lhs.Var.IsArray() {
			return Exec{Kind: ExecOwner, OwnerRef: st.Lhs}
		}
		m := r.ScalarOfStmt(st)
		e := Exec{Kind: ExecAll, Scalar: m}
		switch {
		case m == nil:
		case m.Kind == ScalarNoAlign:
			e.Kind = ExecUnion
		case m.Kind == ScalarReduction:
			if m.Red != nil && m.Red.DataRef != nil && m.Red.Stmt == st {
				// The local partial update runs on the data owners.
				e.Kind, e.OwnerRef = ExecOwner, m.Red.DataRef
			} else {
				e.Kind = ExecPattern
			}
		case m.Kind == ScalarAligned:
			e.Kind, e.OwnerRef = ExecOwner, m.Target
		}
		return e
	case ir.SIf, ir.SIfGoto:
		if r.CtrlPrivatized(st) {
			return Exec{Kind: ExecUnion}
		}
	}
	// Goto, continue, bounds, redistribute, unprivatized control flow.
	return Exec{Kind: ExecAll}
}

// ExecPattern is the symbolic execution set of st: the pattern ExecOf's
// decision denotes, a union decision over-approximated dimension-wise.
func (r *Result) ExecPattern(st *ir.Stmt) dist.OwnerPattern {
	if e := r.ExecOf(st); e.Kind != ExecUnion {
		return r.patternOf(e)
	}
	// Union of the execution sets of the other owner-driven statements in
	// the statement's innermost loop body.
	if st.Loop == nil {
		return r.repl
	}
	var out dist.OwnerPattern
	for _, other := range r.Prog.Stmts {
		if other == st || other.Kind != ir.SAssign || !ir.Encloses(st.Loop, other.Loop) {
			continue
		}
		e := r.ExecOf(other)
		if e.Kind != ExecOwner && e.Kind != ExecPattern {
			continue
		}
		pat := r.patternOf(e)
		if out.Dims == nil {
			out = pat.Clone()
			continue
		}
		// Dims that agree across all patterns keep their determination;
		// the others are widened to all coordinates.
		for d := range out.Dims {
			if !dist.SameDim(out.Dims[d], pat.Dims[d]) {
				out.Dims[d] = dist.DimPattern{Repl: true}
			}
		}
	}
	if out.Dims == nil {
		return r.repl
	}
	// Dims whose determination varies in loops nested inside st.Loop are
	// widened too (the union ranges over those inner iterations).
	for d := range out.Dims {
		for _, inner := range r.Prog.Loops {
			if !out.Dims[d].Repl && inner != st.Loop && ir.Encloses(st.Loop, inner) && out.Dims[d].Sub.VariesIn(inner) {
				out.Dims[d] = dist.DimPattern{Repl: true}
			}
		}
	}
	return out
}

// patternOf is the pattern a non-union decision denotes.
func (r *Result) patternOf(e Exec) dist.OwnerPattern {
	switch e.Kind {
	case ExecOwner:
		return r.RefPattern(e.OwnerRef)
	case ExecPattern:
		return e.Scalar.Pattern
	}
	return r.repl
}

// Hoistable reports whether communication moving use u from src to dst can be
// aggregated out of loop l (message vectorization): both endpoint patterns
// must be statically enumerable across l's iterations (affine positions in
// the distributed dimensions) and the data must not be produced inside l
// (flow dependence). It is the one hoisting-legality test: the planner places
// every requirement with it, and the selector asks it — with the candidate
// target's pattern as dst — whether an alignment would leave communication
// inside the loop (§2.1's x-versus-y distinction).
func (r *Result) Hoistable(u *ir.Ref, src, dst dist.OwnerPattern, l *ir.Loop) bool {
	for d := range src.Dims {
		if !src.Dims[d].Repl && !src.Dims[d].Sub.OK {
			return false
		}
		if !dst.Dims[d].Repl && !dst.Dims[d].Sub.OK {
			return false
		}
	}
	return r.stableIn(u, l)
}

// stableIn reports whether every instance of u inside l reads data that
// exists at l's entry under subscripts that can be evaluated there: no
// definition inside l may produce the value u reads (flow dependence), nor
// any value its subscripts read — an aggregated message gathered at l's
// entry through an index array that l itself writes would carry the wrong
// elements, whichever dimension the index array subscripts.
func (r *Result) stableIn(u *ir.Ref, l *ir.Loop) bool {
	for _, w := range u.Stmt.Uses {
		if w.EnclosingRef == u && !r.stableIn(w, l) {
			return false
		}
	}
	if u.Var.IsArray() {
		// A definition of the array inside l counts only if it may produce
		// an element the use reads (Banerjee-style test).
		for _, st := range r.Prog.Stmts {
			if st.Kind == ir.SAssign && st.Lhs.Var == u.Var && ir.Encloses(l, st.Loop) {
				if r.Opts.DisableDependenceTest || ir.MayOverlapAcross(st.Lhs, u, l) {
					return false
				}
			}
		}
		return true
	}
	// Scalar: every reaching definition must lie outside l.
	for _, d := range r.SSA.ReachingDefs(u) {
		if d.Kind == ssa.VDef && ir.Encloses(l, d.Stmt.Loop) {
			return false
		}
	}
	return true
}
