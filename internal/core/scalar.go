package core

import (
	"phpf/internal/ast"
	"phpf/internal/dataflow"
	"phpf/internal/dist"
	"phpf/internal/ir"
	"phpf/internal/ssa"
)

// determineScalar implements Figure 3's DetermineMapping(def, stmt) plus the
// producer-only strategy used for the Table 1 comparison. It returns the
// (possibly provisional) mapping for def.
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

	st := def.Stmt
	m := a.replicatedMapping(def)

	// Reduction accumulators are handled outside this algorithm (§2.3).
	if a.reductionOf[def.Stmt] != nil {
		a.record(def, m)
		return m
	}

	// All reaching definitions of a use share one mapping: adopt a sibling
	// definition's decision when one exists.
	if sib := a.existingSiblingMapping(def); sib != nil {
		adopted := *sib
		adopted.Def = def
		// The copy-out belongs to the sibling's definition alone.
		adopted.LastPrivate = false
		a.record(def, &adopted)
		return &adopted
	}

	privLoop, lastPriv := a.privatizationLoop(def)
	if privLoop == nil {
		a.record(def, m)
		return m
	}
	m.PrivLoop = privLoop

	rhsRepl := a.isRhsReplicated(st)

	if lastPriv && rhsRepl {
		// Replicating the definition costs nothing (its inputs are already
		// on every processor), while lastprivate would spend a broadcast on
		// the copy-out: keep it replicated.
		m.PrivLoop = nil
		a.record(def, m)
		return m
	}
	// Uses past a lastprivate loop are served by the copy-out; they neither
	// force replication nor act as consumers.
	var skipOutside *ir.Loop
	if lastPriv {
		skipOutside = privLoop
	}

	if a.opts.Scalars == ScalarsProducerAligned {
		// Correctness still forces replication for values needed on every
		// processor (loop bounds, broadcast subscripts). The check must not
		// recurse into consumer mappings (that would finalize later
		// definitions before their own producers are resolved).
		if _, forced := a.selectConsumerMode(def, false, skipOutside); forced {
			if lastPriv {
				m.PrivLoop = nil
			}
			a.record(def, m)
			return m
		}
		// Always align with a partitioned producer reference if one exists.
		if prod := a.selectProducer(st); prod != nil {
			if pat := a.res.RefPattern(prod); !patternValid(pat) {
				a.diagf(st.Pos(), "scalar-mapping", def.Var.Name,
					"producer candidate %s has an invalid owner pattern; falling back to replication", prod)
			} else if lp := a.alignmentLoop(def, prod); lp != nil {
				m.Kind = ScalarAligned
				m.Target = prod
				m.TargetIsConsumer = false
				m.PrivLoop = lp
				m.LastPrivate = lastPriv
				m.Pattern = pat
				a.record(def, m)
				a.propagateToSiblings(def, m)
				return m
			} else {
				a.diagf(st.Pos(), "scalar-mapping", def.Var.Name,
					"no loop level admits alignment with producer %s; falling back to replication", prod)
			}
		}
		if rhsRepl && a.ssa.IsUniqueDef(def) {
			a.noAlignExam = append(a.noAlignExam, def)
		}
		if lastPriv {
			m.PrivLoop = nil
		}
		a.record(def, m)
		return m
	}

	// --- Full §2.2 algorithm ---

	consumer, forcedRepl := a.selectConsumer(def, skipOutside)
	m.SelectedConsumer = consumer
	m.ForcedReplicated = forcedRepl
	if forcedRepl {
		// Some reached use needs the value on every processor (loop bound
		// or broadcast subscript): the dummy replicated reference wins and
		// the traversal is terminated. This also excludes privatization
		// without alignment.
		if lastPriv {
			m.PrivLoop = nil
		}
		a.record(def, m)
		return m
	}

	if rhsRepl && a.ssa.IsUniqueDef(def) {
		a.noAlignExam = append(a.noAlignExam, def)
	}

	var target *ir.Ref
	targetIsConsumer := false
	if consumer != nil {
		target = consumer
		targetIsConsumer = true
	}
	if !rhsRepl && (target == nil || a.innerLoopCommWith(st, target)) {
		if prod := a.selectProducer(st); prod != nil {
			target = prod
			targetIsConsumer = false
		}
	}

	if target != nil {
		if pat := a.res.RefPattern(target); !patternValid(pat) {
			a.diagf(st.Pos(), "scalar-mapping", def.Var.Name,
				"alignment candidate %s has an invalid owner pattern; falling back to replication", target)
		} else if lp := a.alignmentLoop(def, target); lp != nil {
			m.Kind = ScalarAligned
			m.Target = target
			m.TargetIsConsumer = targetIsConsumer
			m.PrivLoop = lp
			m.LastPrivate = lastPriv
			m.Pattern = pat
			a.record(def, m)
			a.propagateToSiblings(def, m)
			return m
		} else {
			a.diagf(st.Pos(), "scalar-mapping", def.Var.Name,
				"no loop level admits alignment with %s; falling back to replication", target)
		}
	}
	if lastPriv {
		m.PrivLoop = nil
	}
	a.record(def, m)
	return m
}

// patternValid rejects owner patterns with degenerate distributions: a
// non-replicated grid dimension must have a positive block size and extent,
// or downstream cost computations divide by zero. Such a candidate is not
// alignable; the caller degrades to replication with a diagnostic.
func patternValid(p dist.OwnerPattern) bool {
	for _, d := range p.Dims {
		if d.Repl {
			continue
		}
		if d.Block <= 0 || d.Extent <= 0 {
			return false
		}
	}
	return true
}

// existingSiblingMapping returns the mapping already recorded for another
// reaching definition sharing a use with def, if any.
func (a *analyzer) existingSiblingMapping(def *ssa.Value) *ScalarMapping {
	for _, ru := range a.ssa.ReachedUses(def) {
		for _, d := range a.ssa.ReachingDefs(ru.Ref) {
			if d == def {
				continue
			}
			if m := a.res.Scalars[d]; m != nil {
				return m
			}
		}
	}
	return nil
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
	if _, l := dataflow.PrivatizationLevel(a.ssa, def); l != nil {
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
	al := a.alignLevel(target, nil)
	var chain []*ir.Loop
	for l := def.Stmt.Loop; l != nil; l = l.Parent {
		chain = append([]*ir.Loop{l}, chain...)
	}
	for _, l := range chain {
		if l.Level >= al && a.privatizableWrt(def, l) {
			return l
		}
	}
	return nil
}

// alignLevel computes the paper's AlignLevel(r): the maximum
// SubscriptAlignLevel over the subscripts appearing in partitioned
// dimensions of r. restrictGrid, when non-nil, restricts the computation to
// array dimensions mapped to those grid dimensions (partial privatization).
func (a *analyzer) alignLevel(r *ir.Ref, restrictGrid map[int]bool) int {
	if !r.Var.IsArray() {
		return 0
	}
	am := a.m.Arrays[r.Var]
	if am == nil {
		return 0
	}
	lvl := 0
	for dim, ax := range am.Axes {
		if !ax.Distributed {
			continue
		}
		if restrictGrid != nil && !restrictGrid[ax.GridDim] {
			continue
		}
		if s := ir.SubscriptAlignLevel(r.Subs[dim], r.Stmt); s > lvl {
			lvl = s
		}
	}
	return lvl
}

// propagateToSiblings records the same mapping for every reaching definition
// of every reached use of def — the compiler's restriction that all reaching
// definitions of a use share one mapping.
func (a *analyzer) propagateToSiblings(def *ssa.Value, m *ScalarMapping) {
	for _, ru := range a.ssa.ReachedUses(def) {
		for _, d := range a.ssa.ReachingDefs(ru.Ref) {
			if d == def || d.Kind != ssa.VDef {
				continue
			}
			if a.res.Scalars[d] == nil {
				sib := *m
				sib.Def = d
				// The copy-out belongs to def alone.
				sib.LastPrivate = false
				a.res.Scalars[d] = &sib
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Consumer selection

// selectConsumer traverses the reached uses of def and picks a consumer
// alignment target. The second result is true when some use forces the
// dummy replicated reference (the value is needed on all processors:
// loop-bound uses and broadcast subscripts), terminating the traversal.
// skipOutside, when non-nil, excludes uses outside that loop from the
// traversal (a lastprivate copy-out serves them).
func (a *analyzer) selectConsumer(def *ssa.Value, skipOutside *ir.Loop) (*ir.Ref, bool) {
	return a.selectConsumerMode(def, true, skipOutside)
}

// selectConsumerMode is selectConsumer with control over whether
// privatizable-scalar consumers are resolved recursively.
func (a *analyzer) selectConsumerMode(def *ssa.Value, resolve bool, skipOutside *ir.Loop) (*ir.Ref, bool) {
	var best *ir.Ref
	bestScore := -1
	consider := func(cand *ir.Ref, use *ir.Ref) {
		if cand == nil {
			return
		}
		score := a.scoreTarget(cand, def.Stmt, use.Stmt)
		if score > bestScore {
			best, bestScore = cand, score
		}
	}
	for _, ru := range a.ssa.ReachedUses(def) {
		u := ru.Ref
		st := u.Stmt
		if skipOutside != nil && !ir.Encloses(skipOutside, st.Loop) {
			continue
		}
		switch {
		case st.Kind == ir.SLoopBounds:
			// Loop bounds must be evaluated by every processor.
			return nil, true

		case u.InSubscript:
			encl := u.EnclosingRef
			if encl == nil {
				return nil, true
			}
			if encl.IsDef {
				// Subscript of the lhs: if it indexes a distributed
				// dimension, every processor needs it to evaluate the
				// ownership guard.
				if a.subscriptOnDistributedDim(u, encl) {
					return nil, true
				}
				consider(encl, u)
				continue
			}
			// Subscript of an rhs reference: needed only by the statement's
			// executors when the reference itself needs no communication;
			// otherwise it must be broadcast (phpf's §2.1 optimization).
			if a.refNeedsComm(encl, st) {
				return nil, true
			}
			if st.Kind == ir.SAssign {
				consider(st.Lhs, u)
			}
			continue

		case st.Kind == ir.SIf || st.Kind == ir.SIfGoto:
			// Predicate use: the consumer is the union of processors
			// executing control-dependent statements. When that union is
			// representable by the lhs of a dependent assignment, use it;
			// otherwise force replication.
			if cand := a.controlConsumer(st); cand != nil {
				consider(cand, u)
				continue
			}
			return nil, true

		case st.Kind == ir.SAssign:
			if resolve || st.Lhs.Var.IsArray() {
				consider(a.consumerRefOf(st), u)
			}

		default:
			// Redistribute or other statements: value needed everywhere.
			return nil, true
		}
	}
	return best, false
}

// consumerRefOf resolves the consumer reference of a plain rhs use: the lhs
// of the assignment. Privatizable-scalar lhs references are resolved
// recursively to their own alignment target (paper §2.2).
func (a *analyzer) consumerRefOf(st *ir.Stmt) *ir.Ref {
	lhs := st.Lhs
	if lhs.Var.IsArray() {
		if a.res.RefPattern(lhs).IsReplicated() {
			return nil // consumer refers to replicated data: ignore
		}
		return lhs
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

// selectProducer picks a partitioned rhs reference of the statement (array
// references first, then aligned scalars' targets), preferring references
// that traverse a distributed dimension in the statement's innermost loop.
func (a *analyzer) selectProducer(st *ir.Stmt) *ir.Ref {
	var best *ir.Ref
	bestScore := -1
	for _, u := range st.Uses {
		if u.InSubscript {
			continue
		}
		var cand *ir.Ref
		if u.Var.IsArray() {
			cand = u
		} else {
			// A scalar rhs whose mapping is (already) aligned contributes
			// its target.
			for _, d := range a.ssa.ReachingDefs(u) {
				if mm := a.res.Scalars[d]; mm != nil && mm.Kind == ScalarAligned {
					cand = mm.Target
					break
				}
			}
		}
		if cand == nil {
			continue
		}
		if a.res.RefPattern(cand).IsReplicated() {
			continue
		}
		score := a.scoreTarget(cand, st, st)
		if score > bestScore {
			best, bestScore = cand, score
		}
	}
	return best
}

// scoreTarget ranks an alignment candidate: partitioned references whose
// distributed dimension is traversed in the innermost common loop of the
// definition and the use score highest (the paper prefers A(i) over A(1)
// inside an i-loop).
func (a *analyzer) scoreTarget(cand *ir.Ref, defStmt, useStmt *ir.Stmt) int {
	pat := a.res.RefPattern(cand)
	if pat.IsReplicated() {
		return -1
	}
	icl := ir.InnermostCommonLoop(defStmt.Loop, useStmt.Loop)
	score := 1
	for l := icl; l != nil; l = l.Parent {
		if pat.VariesInLoop(l) {
			score = 2
			break
		}
	}
	return score
}

// ---------------------------------------------------------------------------
// Inner-loop communication test

// innerLoopCommWith reports whether aligning the scalar defined by st with
// target would require communication placed inside st's innermost loop for
// some rhs reference of st — i.e. a message per iteration rather than a
// vectorized one (§2.1's x-versus-y distinction). The question is put to the
// planner's own placement test, so the selector cannot believe in a hoisting
// the plan will not perform, nor fear one it will.
func (a *analyzer) innerLoopCommWith(st *ir.Stmt, target *ir.Ref) bool {
	loop := st.Loop
	if loop == nil {
		return false
	}
	dst := a.res.RefPattern(target)
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
