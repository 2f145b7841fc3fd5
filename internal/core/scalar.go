package core

import (
	"phpf/internal/ast"
	"phpf/internal/dataflow"
	"phpf/internal/dist"
	"phpf/internal/ir"
	"phpf/internal/ssa"
)

// determineScalar implements Figure 3's DetermineMapping(def, stmt) for both
// privatizing strategies of Table 1: after the guards, choose picks one
// alignment target, align aligns def with it, and a definition that stays
// unaligned is replicated. It returns the (possibly provisional) mapping for
// def.
func (a *analyzer) determineScalar(def *ssa.Value) *ScalarMapping {
	if m := a.res.Scalars[def]; m != nil {
		return m
	}
	if a.inProgress[def] {
		// Recursive query: unresolved yet, treat as replicated for now.
		return nil
	}
	a.inProgress[def] = true
	defer delete(a.inProgress, def)

	m := a.replicatedMapping(def)

	// Reduction accumulators are handled outside this algorithm (§2.3).
	if a.res.ReducePlan.Of(def.Stmt) != nil {
		a.record(def, m)
		return m
	}

	// All reaching definitions of a use share one mapping: adopt a sibling
	// definition's decision when one exists.
	var sib *ScalarMapping
	a.siblings(def, func(d *ssa.Value) bool { sib = a.res.Scalars[d]; return sib == nil })
	if sib != nil {
		m = sibling(sib, def)
		a.record(def, m)
		return m
	}

	privLoop, lastPriv := a.privatizationLoop(def)
	m.PrivLoop = privLoop
	if privLoop == nil {
		a.record(def, m)
		return m
	}

	// Replicating a lastprivate definition whose inputs are already on every
	// processor costs nothing, while lastprivate would spend a broadcast on
	// the copy-out: such a definition stays replicated.
	if rhsRepl := a.isRhsReplicated(def.Stmt); !lastPriv || !rhsRepl {
		target, toConsumer, forced := a.choose(def, m, rhsRepl, lastPriv)
		if !forced {
			aligned := target.ref != nil && a.align(def, m, target, toConsumer, lastPriv)
			// The deferred list: privatization without alignment is
			// re-examined at the end of the pass for a unique definition
			// whose inputs are replicated, unless it is aligned with a
			// producer.
			if rhsRepl && (!aligned || toConsumer) && a.ssa.IsUniqueDef(def) {
				a.noAlignExam = append(a.noAlignExam, def)
			}
			if aligned {
				return m
			}
		}
	}
	// Replicated; the copy-out of a lastprivate definition has nothing to
	// copy.
	if lastPriv {
		m.PrivLoop = nil
	}
	a.record(def, m)
	return m
}

// choose picks def's alignment target under the scalar strategy. forced
// reports that some reached use needs the value on every processor (a loop
// bound or a broadcast subscript): the dummy replicated reference wins, which
// excludes alignment and privatization without it. Uses past a lastprivate
// loop are served by the copy-out; they neither force replication nor act as
// consumers.
func (a *analyzer) choose(def *ssa.Value, m *ScalarMapping, rhsRepl, lastPriv bool) (target candidate, toConsumer, forced bool) {
	var skipOutside *ir.Loop
	if lastPriv {
		skipOutside = m.PrivLoop
	}
	if a.opts.Scalars == ScalarsProducerAligned {
		// Always a partitioned producer reference when one exists; the
		// forced test must not recurse into consumer mappings (that would
		// finalize later definitions before their own producers are
		// resolved).
		if _, forced = a.consumer(def, false, skipOutside); !forced {
			target = a.producer(def.Stmt)
		}
		return target, false, forced
	}
	// The full §2.2 algorithm: the consumer the traversal selects, unless
	// there is none or it leaves communication inside the loop while the
	// inputs are not replicated; then a producer, when there is one. Only
	// this strategy records the traversal's outcome on the mapping.
	target, forced = a.consumer(def, true, skipOutside)
	m.SelectedConsumer, m.ForcedReplicated = target.ref, forced
	toConsumer = target.ref != nil
	if !forced && !rhsRepl && (!toConsumer || a.innerLoopCommWith(def.Stmt, target.pat)) {
		if prod := a.producer(def.Stmt); prod.ref != nil {
			target, toConsumer = prod, false
		}
	}
	return target, toConsumer, forced
}

// align aligns def with the chosen target at the outermost loop where both
// the privatization and the alignment are valid, records the mapping and
// shares it with the sibling definitions. It reports false, with a
// diagnostic, when no loop level admits the alignment.
func (a *analyzer) align(def *ssa.Value, m *ScalarMapping, target candidate, toConsumer, lastPriv bool) bool {
	with := ""
	if a.opts.Scalars == ScalarsProducerAligned {
		with = "producer "
	}
	lp := a.alignmentLoop(def, target.ref)
	if lp == nil {
		a.diagf(def.Stmt.Pos(), "scalar-mapping", def.Var.Name,
			"no loop level admits alignment with %s%s; falling back to replication", with, target.ref)
		return false
	}
	m.Kind, m.Target, m.TargetIsConsumer, m.Pattern = ScalarAligned, target.ref, toConsumer, target.pat
	m.PrivLoop, m.LastPrivate = lp, lastPriv
	a.record(def, m)
	a.propagateToSiblings(def, m)
	return true
}

// siblings calls f on every other explicit definition reaching a use that
// def reaches — the definitions that must share def's mapping — until f
// returns false.
func (a *analyzer) siblings(def *ssa.Value, f func(d *ssa.Value) bool) {
	for _, ru := range a.ssa.ReachedUses(def) {
		for _, d := range a.ssa.ReachingDefs(ru.Ref) {
			if d != def && d.Kind == ssa.VDef && !f(d) {
				return
			}
		}
	}
}

// sibling is m as the mapping of the sibling definition d. The copy-out of
// a lastprivate definition belongs to that definition alone.
func sibling(m *ScalarMapping, d *ssa.Value) *ScalarMapping {
	s := *m
	s.Def, s.LastPrivate = d, false
	return &s
}

// propagateToSiblings records the same mapping for every sibling definition
// not yet mapped — the compiler's restriction that all reaching definitions
// of a use share one mapping.
func (a *analyzer) propagateToSiblings(def *ssa.Value, m *ScalarMapping) {
	a.siblings(def, func(d *ssa.Value) bool {
		if a.res.Scalars[d] == nil {
			a.res.Scalars[d] = sibling(m, d)
		}
		return true
	})
}

// privatizationLoop determines the loop with respect to which def is
// privatizable: data-flow analysis first, then the innermost enclosing loop
// whose privatization facts (ir.Loop.Privatizes: what a directive asserts
// under the privatization mode — making any seemingly-reached use outside
// that loop spurious — plus what the autopriv pass inferred) name the
// variable. The second result marks a lastprivate privatization, taken only
// when no loop privatizes the variable outright: valid only with the
// final-iteration copy-out at loop exit.
func (a *analyzer) privatizationLoop(def *ssa.Value) (*ir.Loop, bool) {
	if l := dataflow.PrivatizationLevel(a.ssa, def); l != nil {
		return l, false
	}
	var last *ir.Loop
	for l := def.Stmt.Loop; l != nil; l = l.Parent {
		switch ok, lastOnly := l.Privatizes(def.Var); {
		case ok && !lastOnly:
			return l, false
		case ok && last == nil:
			last = l
		}
	}
	return last, last != nil
}

// privatizableWrt reports whether def may be privatized with respect to l
// (analysis, or a privatization fact of l). A lastprivate fact asserts
// privatizability only at exactly its loop — the level where the copy-out
// happens.
func (a *analyzer) privatizableWrt(def *ssa.Value, l *ir.Loop) bool {
	if dataflow.Privatizable(a.ssa, def, l) {
		return true
	}
	ok, _ := l.Privatizes(def.Var)
	return ok && ir.Encloses(l, def.Stmt.Loop)
}

// alignmentLoop finds the outermost enclosing loop l such that def is
// privatizable with respect to l and the alignment with target is valid
// throughout l (AlignLevel(target) <= level(l)). Returns nil when no level
// works.
func (a *analyzer) alignmentLoop(def *ssa.Value, target *ir.Ref) *ir.Loop {
	al := alignLevel(a.m, target)
	var out *ir.Loop
	for l := def.Stmt.Loop; l != nil && l.Level >= al; l = l.Parent {
		if a.privatizableWrt(def, l) {
			out = l
		}
	}
	return out
}

// alignLevel computes the paper's AlignLevel(r) under mapping m: the maximum
// SubscriptAlignLevel over the subscripts appearing in distributed
// dimensions of r.
func alignLevel(m *dist.Mapping, r *ir.Ref) int {
	am := m.Arrays[r.Var]
	if !r.Var.IsArray() || am == nil {
		return 0
	}
	lvl := 0
	for dim, ax := range am.Axes {
		if ax.Distributed {
			lvl = max(lvl, ir.SubscriptAlignLevel(r.Subs[dim], r.Stmt))
		}
	}
	return lvl
}

// ---------------------------------------------------------------------------
// Ranking

// candidate is an alignment target as ranked: the reference, its owner
// pattern under the decisions so far, and its score. The zero value ranks
// below every partitioned reference.
type candidate struct {
	ref   *ir.Ref
	pat   dist.OwnerPattern
	score int
}

// offer ranks ref (nil: no candidate) as an alignment target for a
// definition at defStmt whose value is used at useStmt, and keeps it in best
// when it ranks above every earlier offer. Partitioned references whose
// distributed dimension is traversed in the innermost common loop of the
// definition and the use rank highest (the paper prefers A(i) over A(1)
// inside an i-loop); a replicated reference is never kept.
func (a *analyzer) offer(best *candidate, ref *ir.Ref, defStmt, useStmt *ir.Stmt) {
	if ref == nil {
		return
	}
	pat := a.res.RefPattern(ref)
	if pat.IsReplicated() {
		return
	}
	score := 1
	for l := ir.InnermostCommonLoop(defStmt.Loop, useStmt.Loop); l != nil; l = l.Parent {
		if pat.VariesInLoop(l) {
			score = 2
			break
		}
	}
	if score > best.score {
		*best = candidate{ref, pat, score}
	}
}

// ---------------------------------------------------------------------------
// Consumer selection

// consumer traverses the reached uses of def and ranks their consumer
// alignment targets. forced is true when some use forces the dummy
// replicated reference (the value is needed on all processors: loop-bound
// uses and broadcast subscripts), terminating the traversal. resolve
// controls whether privatizable-scalar consumers are resolved recursively.
// skipOutside, when non-nil, excludes uses outside that loop from the
// traversal (a lastprivate copy-out serves them).
func (a *analyzer) consumer(def *ssa.Value, resolve bool, skipOutside *ir.Loop) (best candidate, forced bool) {
	for _, ru := range a.ssa.ReachedUses(def) {
		u := ru.Ref
		st := u.Stmt
		if skipOutside != nil && !ir.Encloses(skipOutside, st.Loop) {
			continue
		}
		switch {
		case st.Kind == ir.SLoopBounds:
			// Loop bounds must be evaluated by every processor.
			return candidate{}, true

		case u.InSubscript:
			encl := u.EnclosingRef
			if encl == nil {
				return candidate{}, true
			}
			if encl.IsDef {
				// Subscript of the lhs: if it indexes a distributed
				// dimension, every processor needs it to evaluate the
				// ownership guard.
				if a.subscriptOnDistributedDim(u, encl) {
					return candidate{}, true
				}
				a.offer(&best, encl, def.Stmt, st)
				continue
			}
			// Subscript of an rhs reference: needed only by the statement's
			// executors when the reference itself needs no communication;
			// otherwise it must be broadcast (phpf's §2.1 optimization).
			if a.refNeedsComm(encl, st) {
				return candidate{}, true
			}
			if st.Kind == ir.SAssign {
				a.offer(&best, st.Lhs, def.Stmt, st)
			}

		case st.Kind == ir.SIf || st.Kind == ir.SIfGoto:
			// Predicate use: the consumer is the union of processors
			// executing control-dependent statements. When that union is
			// representable by the lhs of a dependent assignment, use it;
			// otherwise force replication.
			cand := a.controlConsumer(st)
			if cand == nil {
				return candidate{}, true
			}
			a.offer(&best, cand, def.Stmt, st)

		case st.Kind == ir.SAssign:
			if resolve || st.Lhs.Var.IsArray() {
				a.offer(&best, a.consumerRefOf(st), def.Stmt, st)
			}

		default:
			// Redistribute or other statements: value needed everywhere.
			return candidate{}, true
		}
	}
	return best, false
}

// consumerRefOf resolves the consumer reference of a plain rhs use: the lhs
// of the assignment. Privatizable-scalar lhs references are resolved
// recursively to their own alignment target (paper §2.2).
func (a *analyzer) consumerRefOf(st *ir.Stmt) *ir.Ref {
	if st.Lhs.Var.IsArray() {
		return st.Lhs
	}
	// Scalar lhs: recursively determine its mapping.
	lhsDef := a.ssa.DefOf[st]
	if lhsDef == nil {
		return nil
	}
	lm := a.determineScalar(lhsDef)
	if lm == nil {
		return nil // in-progress (cycle): treated as replicated
	}
	if lm.Kind == ScalarAligned || lm.Kind == ScalarReduction {
		return lm.Target
	}
	return nil
}

// controlConsumer picks a representative alignment target for data used in
// a control predicate: the lhs of the first control-dependent assignment to
// partitioned data, provided the control statement is privatizable (§4).
func (a *analyzer) controlConsumer(ctrl *ir.Stmt) *ir.Ref {
	if !a.opts.PrivatizeControlFlow || !a.ctrlPrivatizable(ctrl) {
		return nil
	}
	var found *ir.Ref
	for _, st := range a.prog.Stmts {
		if st.Kind != ir.SAssign {
			continue
		}
		for _, e := range st.EnclosingIfs {
			if e == ctrl {
				if st.Lhs.Var.IsArray() && !a.res.RefPattern(st.Lhs).IsReplicated() {
					return st.Lhs
				}
				if found == nil {
					found = st.Lhs
				}
			}
		}
	}
	return found
}

// subscriptOnDistributedDim reports whether use u sits in a subscript
// position of ref that indexes a distributed dimension.
func (a *analyzer) subscriptOnDistributedDim(u *ir.Ref, ref *ir.Ref) bool {
	am := a.m.Arrays[ref.Var]
	if ap := a.res.Arrays[ref.Var]; ap != nil {
		// Privatized array: partitioned dims are in ap.Axes.
		for dim, ax := range ap.Axes {
			if ax.Distributed && subscriptContains(ref, dim, u) {
				return true
			}
		}
		return false
	}
	if am == nil {
		return false
	}
	for dim, ax := range am.Axes {
		if ax.Distributed && subscriptContains(ref, dim, u) {
			return true
		}
	}
	return false
}

// subscriptContains reports whether the use's AST node appears within the
// dim-th subscript expression of ref.
func subscriptContains(ref *ir.Ref, dim int, u *ir.Ref) bool {
	if dim >= len(ref.Ast.Subs) {
		return false
	}
	found := false
	ast.Walk(ref.Ast.Subs[dim], func(e ast.Expr) {
		if e == ast.Expr(u.Ast) {
			found = true
		}
	})
	return found
}

// refNeedsComm reports whether rhs reference ref requires communication for
// statement st under the current decisions.
func (a *analyzer) refNeedsComm(ref *ir.Ref, st *ir.Stmt) bool {
	return !dist.Covers(a.res.RefPattern(ref), a.res.ExecPattern(st))
}

// ---------------------------------------------------------------------------
// Producer selection

// producer ranks the partitioned rhs references of the statement (array
// references, and aligned scalars' targets) as alignment targets.
func (a *analyzer) producer(st *ir.Stmt) (best candidate) {
	for _, u := range st.Uses {
		if u.InSubscript {
			continue
		}
		cand := u
		if !u.Var.IsArray() {
			// A scalar rhs whose mapping is (already) aligned contributes
			// its target.
			cand = nil
			for _, d := range a.ssa.ReachingDefs(u) {
				if mm := a.res.Scalars[d]; mm != nil && mm.Kind == ScalarAligned {
					cand = mm.Target
					break
				}
			}
		}
		a.offer(&best, cand, st, st)
	}
	return best
}

// ---------------------------------------------------------------------------
// Inner-loop communication test

// innerLoopCommWith reports whether aligning the scalar defined by st with a
// target of owner pattern dst would require communication placed inside st's
// innermost loop for some rhs reference of st — i.e. a message per iteration
// rather than a vectorized one (§2.1's x-versus-y distinction). The question
// is put to the planner's own placement test, so the selector cannot believe
// in a hoisting the plan will not perform, nor fear one it will.
func (a *analyzer) innerLoopCommWith(st *ir.Stmt, dst dist.OwnerPattern) bool {
	loop := st.Loop
	if loop == nil {
		return false
	}
	for _, u := range st.Uses {
		if u.InSubscript && u.EnclosingRef == st.Lhs {
			continue
		}
		src := a.res.RefPattern(u)
		if dist.Covers(src, dst) {
			continue // no communication for this reference
		}
		if !a.res.Hoistable(u, src, dst, loop) {
			return true
		}
	}
	return false
}
