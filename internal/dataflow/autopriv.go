package dataflow

import (
	"fmt"
	"slices"

	"phpf/internal/ast"
	"phpf/internal/ir"
	"phpf/internal/ssa"
)

// This file implements the privatization classification analysis behind the
// autopriv pipeline pass: for every (loop, variable-written-in-loop) pair it
// decides private / lastprivate / serialized, recording the blocking
// reference when privatization is declined (the Tu & Padua-style analysis
// the paper names as future work, with intrepydd's serialize-with-reason
// discipline).
//
// Scalars are classified on SSA def-use facts: a scalar is private with
// respect to L when every use inside L is reached only by definitions
// inside L (def-before-use on every iteration path) and no def→use pair
// crosses L's back edge (no loop-carried flow). A scalar whose only failure
// is being live after the loop is lastprivate when its final-iteration
// value is well-defined (a single unconditional definition that is the
// unique reaching definition of its uses); the mapping layer then emits a
// copy-out at loop exit.
//
// Arrays are classified with the per-iteration region machinery below
// (written regions covering read regions dimension-wise), with liveness
// decided on the CFG: a read outside L blocks privatization only when its
// block is reachable from L's exit — a read that can only execute before
// the loop consumes the pre-loop value and is harmless.

// PrivDecision is the per-(loop, variable) classification.
type PrivDecision int

const (
	// PrivSerialized: not privatizable; the value stays shared and its
	// cross-iteration (or cross-loop) flow serializes.
	PrivSerialized PrivDecision = iota
	// PrivPrivate: provably privatizable with respect to the loop.
	PrivPrivate
	// PrivLastPrivate: privatizable within the loop, with the final
	// iteration's value live after it (scalars only; requires a copy-out).
	PrivLastPrivate
)

func (d PrivDecision) String() string {
	switch d {
	case PrivPrivate:
		return "private"
	case PrivLastPrivate:
		return "lastprivate"
	case PrivSerialized:
		return "serialized"
	}
	return "?"
}

// PrivClass is the classification of one variable with respect to one loop.
type PrivClass struct {
	Var      *ir.Var
	Loop     *ir.Loop
	Decision PrivDecision
	// Directive records that an explicit NEW clause on Loop already asserts
	// the privatization (the analysis result is then a cross-check).
	Directive bool
	// Inserted records that the autopriv pass materialized the decision as
	// an inferred annotation on Loop.
	Inserted bool
	// Blocking is the reference that defeats privatization (PrivSerialized
	// only; may be nil when the failure is structural).
	Blocking *ir.Ref
	// why is the Reason clause, a format naming the reference at (with its
	// position) when at is not nil.
	why string
	at  *ir.Ref
}

// Reason explains the decision in one clause; for PrivSerialized it names the
// blocking reference with its position. It is formatted when it is reported.
func (c *PrivClass) Reason() string {
	if c.at == nil {
		return c.why
	}
	return fmt.Sprintf(c.why, refAt(c.at))
}

// PrivSummary is the full classification of a program: one PrivClass per
// (loop, candidate variable), in deterministic order (loop preorder, then
// variable declaration order within a loop).
type PrivSummary struct {
	Classes []PrivClass
}

// Of returns the classification of v with respect to l (nil when v is not a
// candidate for l).
func (s *PrivSummary) Of(v *ir.Var, l *ir.Loop) *PrivClass {
	for i := range s.Classes {
		if s.Classes[i].Var == v && s.Classes[i].Loop == l {
			return &s.Classes[i]
		}
	}
	return nil
}

// ClassifyPrivatization classifies every candidate (loop, variable) pair of
// the program. Candidates are variables written inside the loop, excluding
// loop indices and the accumulators of reds, the program's recognized
// reductions (handled by the §2.3 reduction mapping); array candidates must
// additionally be read inside the loop — privatizing a write-only array
// eliminates no communication under owner-computes, so it is neither
// privatized nor reported as serialized.
// cp may be nil; when present, constant-propagation facts sharpen the
// lastprivate test by proving loops execute at least one iteration.
func ClassifyPrivatization(p *ir.Program, g *ir.CFG, s *ssa.SSA, cp *ConstProp, reds []*Reduction) *PrivSummary {
	sum := &PrivSummary{}

	// Reduction accumulators are outside this analysis.
	redVar := map[*ir.Var]bool{}
	for _, red := range reds {
		redVar[red.Var] = true
	}

	// stmt → CFG block, for the reachability liveness test.
	blockOf := map[*ir.Stmt]*ir.Block{}
	if g != nil {
		for _, b := range g.Blocks {
			for _, st := range b.Stmts {
				blockOf[st] = b
			}
		}
	}

	for _, L := range p.Loops {
		for _, v := range candidateVars(p, L, redVar) {
			var c PrivClass
			if v.IsArray() {
				c = classifyArray(p, g, blockOf, v, L)
			} else {
				if s == nil {
					continue
				}
				c = classifyScalar(p, g, s, cp, v, L)
			}
			for _, name := range L.New {
				if name == v.Name {
					c.Directive = true
				}
			}
			sum.Classes = append(sum.Classes, c)
		}
	}
	return sum
}

// candidateVars returns the classification candidates for L in declaration
// order: non-index variables written inside L (arrays only when also read
// inside L).
func candidateVars(p *ir.Program, L *ir.Loop, exclude map[*ir.Var]bool) []*ir.Var {
	written := map[*ir.Var]bool{}
	for _, st := range p.Stmts {
		if st.Kind == ir.SAssign && ir.Encloses(L, st.Loop) {
			written[st.Lhs.Var] = true
		}
	}
	readIn := map[*ir.Var]bool{}
	for _, r := range p.Refs {
		if !r.IsDef && ir.Encloses(L, r.Stmt.Loop) {
			readIn[r.Var] = true
		}
	}
	var out []*ir.Var
	for _, v := range p.VarList {
		if !written[v] || v.IsLoopIndex || exclude[v] {
			continue
		}
		if v.IsArray() && !readIn[v] {
			continue
		}
		out = append(out, v)
	}
	return out
}

// refAt renders a reference with its source position for diagnostics.
func refAt(r *ir.Ref) string {
	if r == nil {
		return "?"
	}
	return fmt.Sprintf("%s at %d:%d", r, r.Stmt.Line, r.Stmt.Col)
}

// classifyScalar classifies scalar v with respect to L on SSA facts.
func classifyScalar(p *ir.Program, g *ir.CFG, s *ssa.SSA, cp *ConstProp, v *ir.Var, L *ir.Loop) PrivClass {
	c := PrivClass{Var: v, Loop: L}

	var defs []*ssa.Value
	for _, st := range p.Stmts {
		if st.Kind != ir.SAssign || st.Lhs.Var != v || !ir.Encloses(L, st.Loop) {
			continue
		}
		if d := s.DefOf[st]; d != nil {
			defs = append(defs, d)
		}
	}

	// Def-before-use on every iteration path: a read inside L reached by a
	// definition from outside the loop (or the implicit initial value) is
	// upward-exposed — a fresh private copy would not hold that value.
	for _, r := range p.Refs {
		if r.IsDef || r.Var != v || !ir.Encloses(L, r.Stmt.Loop) {
			continue
		}
		for _, d := range s.ReachingDefs(r) {
			if d.Kind != ssa.VDef || !ir.Encloses(L, d.Stmt.Loop) {
				c.Decision, c.Blocking = PrivSerialized, r
				c.why, c.at = "serialized because %s may read the value live on entry to the loop", r
				return c
			}
		}
	}

	// No loop-carried flow: no def→use pair may cross L's back edge.
	var liveOutUse *ir.Ref
	for _, d := range defs {
		for _, ru := range s.ReachedUses(d) {
			if !ir.Encloses(L, ru.Ref.Stmt.Loop) {
				if liveOutUse == nil {
					liveOutUse = ru.Ref
				}
				continue
			}
			if ru.CrossesBackOf.Has(L) {
				c.Decision, c.Blocking = PrivSerialized, ru.Ref
				c.why, c.at = "serialized because %s reads the value defined in an earlier iteration", ru.Ref
				return c
			}
		}
	}

	if liveOutUse == nil {
		c.Decision = PrivPrivate
		c.why = "every use is reached only by same-iteration definitions"
		return c
	}

	// Live after the loop: lastprivate when the final-iteration value is
	// well-defined — a single unconditional definition that is the unique
	// reaching definition of everything it reaches. A possibly-zero-trip
	// loop leaves the pre-loop value reaching the post-loop use, which
	// IsUniqueDef rejects; constant bounds proving at least one trip make
	// that pre-loop value dead, so the weaker finalValueGuaranteed test
	// accepts it.
	if len(defs) == 1 && len(defs[0].Stmt.EnclosingIfs) == 0 &&
		(s.IsUniqueDef(defs[0]) || finalValueGuaranteed(g, s, cp, defs[0], L)) {
		c.Decision = PrivLastPrivate
		c.why, c.at = "final iteration's value is read by %s; copy-out at loop exit", liveOutUse
		return c
	}
	c.Decision, c.Blocking = PrivSerialized, liveOutUse
	c.why, c.at = "serialized because %s reads the value after the loop and the final-iteration copy-out is unprovable (conditional or multiple definitions)", liveOutUse
	return c
}

// finalValueGuaranteed reports whether def — the sole in-loop definition of
// its variable — is certain to have executed by the time L exits, so the
// value the loop leaves behind is def's final-iteration value and any
// pre-loop definitions still reaching the post-loop uses are dead. This is
// the zero-trip refinement of IsUniqueDef: it requires
//
//   - a provably positive trip count for every loop from def's own loop up
//     to L (constant bounds evaluated with constant propagation),
//   - def's block to dominate every back edge of L (def runs on every
//     complete iteration, even in the presence of GOTOs),
//   - L to exit only through its header (no jump can leave mid-iteration),
//   - every other definition reaching def's reached uses to come from
//     outside L (those are exactly the dead pre-loop values).
func finalValueGuaranteed(g *ir.CFG, s *ssa.SSA, cp *ConstProp, def *ssa.Value, L *ir.Loop) bool {
	if g == nil || cp == nil || def.Stmt == nil {
		return false
	}
	for l := def.Stmt.Loop; l != nil; l = l.Parent {
		if !tripAtLeastOnce(cp, l) {
			return false
		}
		if l == L {
			break
		}
	}
	header, exit := g.HeaderOf[L], g.ExitOf[L]
	if header == nil || exit == nil {
		return false
	}
	for _, pr := range exit.Preds {
		if pr != header && pr.Loop != nil && ir.Encloses(L, pr.Loop) {
			return false // irregular exit from inside the loop body
		}
	}
	latches := 0
	for _, pr := range header.Preds {
		if pr.Loop == nil || !ir.Encloses(L, pr.Loop) {
			continue // preheader edge
		}
		latches++
		if !s.Dom.Dominates(def.Block, pr) {
			return false
		}
	}
	if latches == 0 {
		return false
	}
	for _, ru := range s.ReachedUses(def) {
		for _, d := range s.ReachingDefs(ru.Ref) {
			if d != def && d.Kind == ssa.VDef && ir.Encloses(L, d.Stmt.Loop) {
				return false
			}
		}
	}
	return true
}

// tripAtLeastOnce reports whether l provably executes its body at least once:
// its bounds and step evaluate to constants and span a non-empty range.
// Parameter-only bounds fold directly (BoundsStmt is nil then); bounds
// referencing tracked scalars are evaluated with the constants known at the
// loop's bounds pseudo-statement. Each is the integer the run makes of it: a
// bound that folds to a fraction rounds (do i = 1, 7/2 runs four iterations).
func tripAtLeastOnce(cp *ConstProp, l *ir.Loop) bool {
	if cp == nil {
		return false
	}
	bound := func(e ast.Expr) (int64, bool) {
		c, ok := cp.evalExpr(e, l.BoundsStmt)
		c = c.Round()
		return c.I, ok && c.IsInt
	}
	lo, okLo := bound(l.Lo.Expr)
	hi, okHi := bound(l.Hi.Expr)
	step, okStep := int64(1), true
	if l.Step != nil {
		step, okStep = bound(l.Step)
	}
	if !okLo || !okHi || !okStep || step == 0 {
		return false
	}
	if step > 0 {
		return lo <= hi
	}
	return lo >= hi
}

// classifyArray classifies array v with respect to L: every read inside L
// must be covered by writes earlier in the same iteration, and no read
// reachable after the loop may consume values written in it.
func classifyArray(p *ir.Program, g *ir.CFG, blockOf map[*ir.Stmt]*ir.Block, v *ir.Var, L *ir.Loop) PrivClass {
	c := PrivClass{Var: v, Loop: L}

	var writes []*ir.Ref
	for _, st := range p.Stmts {
		if st.Kind != ir.SAssign || st.Lhs.Var != v {
			continue
		}
		if !ir.Encloses(L, st.Loop) {
			// A write outside L is harmless for privatization wrt L.
			continue
		}
		writes = append(writes, st.Lhs)
	}

	for _, r := range p.Refs {
		if r.IsDef || r.Var != v {
			continue
		}
		if !ir.Encloses(L, r.Stmt.Loop) {
			if readsAfterLoop(g, blockOf, r, L) {
				c.Decision, c.Blocking = PrivSerialized, r
				c.why, c.at = "serialized because %s reads the array after the loop", r
				return c
			}
			continue // only reachable before the loop: pre-loop value, harmless
		}
		if !readCovered(r, writes, L) {
			c.Decision, c.Blocking = PrivSerialized, r
			c.why, c.at = "serialized because %s is not covered by writes earlier in the iteration", r
			return c
		}
	}
	c.Decision = PrivPrivate
	c.why = "every read is covered by same-iteration writes and no value lives past the loop"
	return c
}

// readsAfterLoop reports whether the read (outside L) can execute after L
// completes: its block is reachable from L's exit block on the CFG. Without
// a CFG the answer is conservatively true.
func readsAfterLoop(g *ir.CFG, blockOf map[*ir.Stmt]*ir.Block, r *ir.Ref, L *ir.Loop) bool {
	if g == nil {
		return true
	}
	exit := g.ExitOf[L]
	target := blockOf[r.Stmt]
	if exit == nil || target == nil {
		return true
	}
	seen := map[*ir.Block]bool{}
	work := []*ir.Block{exit}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		if b == target {
			return true
		}
		if seen[b] {
			continue
		}
		seen[b] = true
		work = append(work, b.Succs...)
	}
	return false
}

// readCovered reports whether some write covers the read within one
// iteration of L.
func readCovered(read *ir.Ref, writes []*ir.Ref, L *ir.Loop) bool {
	for _, w := range writes {
		// The write must be certain (not under a condition) and textually
		// precede the read's statement (a same-statement rhs read happens
		// before the write and stays exposed).
		if len(w.Stmt.EnclosingIfs) > 0 {
			continue
		}
		if w.Stmt.ID >= read.Stmt.ID {
			continue
		}
		if coversRegions(w, read, L) {
			return true
		}
	}
	return false
}

// coversRegions checks dimension-wise that the write's per-iteration region
// includes the read's. Every question about a subscript is ir.Affine's to
// answer: the terms that move within L (Inside), the constant between two
// forms (Delta), a form less its scanning term (Without), an inequality over
// a loop's range (ir.BoundDelta).
func coversRegions(w, r *ir.Ref, L *ir.Loop) bool {
	// The write precedes the read in one iteration of every loop around both:
	// those indices are the same number on both sides.
	shared := ir.InnermostCommonLoop(w.Stmt.Loop, r.Stmt.Loop)
	var scans []*ir.Loop // the write loops that scan a dimension
	for dim, ws := range w.Subs {
		rs := r.Subs[dim]
		wIn, rIn := ws.Inside(L), rs.Inside(L)
		if !ws.OK || !rs.OK || len(wIn) > 1 || len(wIn) != len(rIn) {
			// Not affine, several indices moving at once, or a scan against a
			// fixed position (covered only under a bounds proof; keep
			// conservative and reject).
			return false
		}
		if len(wIn) == 0 {
			// Both invariant within L: positions must be provably equal.
			if d, ok := ws.Delta(rs); !ok || d != 0 {
				return false
			}
			continue
		}
		// One scanning loop each, stride one: the read at iteration x of its
		// loop is the position the write has at iteration x+delta of its own,
		// provided the remaining (outer) terms cancel.
		wLoop, rLoop := wIn[0].Loop, rIn[0].Loop
		delta, ok := ws.Without(wLoop).Delta(rs.Without(rLoop))
		if !ok || wIn[0].Coef != 1 || rIn[0].Coef != 1 {
			return false
		}
		if wLoop == rLoop {
			// Same scanning loop: only the write of this very iteration has
			// certainly happened (it precedes the read textually — checked
			// by the caller); a recurrence read c(j-1) after writing c(j)
			// reaches below the written range in the first iterations.
			if delta != 0 {
				return false
			}
			continue
		}
		// Different loops: the write nest must be over before the read runs,
		// must fill its range — a step of +1 and nothing else: a strided loop
		// writes every other element of [Lo, Hi], and a descending or unknown
		// step is declined — and the read's positions, taken in the
		// direction the read loop runs and shifted by delta, must stay
		// inside it: wLo <= rMin+delta and rMax+delta <= wHi.
		rMin, rMax, known := rLoop.Range()
		below, ok1 := ir.BoundDelta(wLoop.Lo, rMin, shared, true)
		above, ok2 := ir.BoundDelta(rMax, wLoop.Hi, shared, true)
		if wLoop.StepConst != 1 || !known || ir.Encloses(wLoop, r.Stmt.Loop) ||
			!ok1 || !ok2 || below+delta < 0 || above-delta < 0 {
			return false
		}
		scans = append(scans, wLoop)
	}
	// A loop around the write that scans no dimension only repeats it, and
	// must do so at least once: an empty scanning loop leaves a range empty
	// that the read's was just proved to lie in, an empty repeating loop
	// leaves everything unwritten.
	for l := w.Stmt.Loop; l != shared; l = l.Parent {
		lo, hi, known := l.Range()
		if trips, ok := ir.BoundDelta(lo, hi, shared, true); !slices.Contains(scans, l) && (!known || !ok || trips < 0) {
			return false
		}
	}
	return true
}
