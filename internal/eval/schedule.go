// The communication schedule: which operation happens where. It is the one
// consumer of the spmd plan's loop and statement annotations (hoisted
// requirements, combines, copy-outs, per-instance requirements) and the one
// place that fixes their order and where the checkpoint and crash-check sites
// fall. The two execution backends implement the operations (Ops) and
// nothing of the order, so they cannot disagree on it.
package eval

import (
	"phpf/internal/comm"
	"phpf/internal/core"
	"phpf/internal/dist"
	"phpf/internal/ir"
	"phpf/internal/machine"
	"phpf/internal/spmd"
)

// Ops is what a backend does at each operation of the schedule: the
// simulator charges its machine (see Account), the concurrent executor has
// its accountant charge the same and then transmits. Decisions arrive
// resolved — an operation is told who sends what to whom, never asked to read
// the plan. An error aborts the walk.
type Ops interface {
	// CheckpointSite is a point where a coordinated checkpoint may be taken:
	// the entry of an outermost loop or of one with hoisted communication,
	// before any of it (nothing aggregated is in flight, so a consistent
	// checkpoint needs no draining). State.Cursor names the point.
	CheckpointSite() error
	// CrashSite is a point where scheduled fail-stop crashes that have come
	// due fire: after each hoisted communication, per-instance transfer and
	// redistribution that took place (a skipped one is not a site).
	CrashSite() error
	// Vectorized performs one hoisted communication (never a VecSkip).
	Vectorized(req *comm.Requirement, op VectorizedOp) error
	// Guard is the ownership test of one per-instance requirement, paid by
	// every processor whether or not a message flows.
	Guard(req *comm.Requirement)
	// Transfer moves the element of one per-instance requirement.
	Transfer(req *comm.Requirement, op InstanceOp) error
	// Compute closes every statement instance: set executes its flops
	// floating-point operations (possibly none).
	Compute(st *ir.Stmt, set dist.ProcSet, flops int)
	// Reduce is the collective combine of a mapped reduction scalar over set.
	Reduce(m *core.ScalarMapping, set dist.ProcSet) error
	// TreeMerge follows the merge of a privatized combine's partial rows of
	// elems elements, already folded into the State along hops.
	TreeMerge(c *spmd.Combine, elems int64, hops []MergeHop) error
	// CopyOut broadcasts a lastprivate scalar's final value from root.
	CopyOut(m *core.ScalarMapping, root int) error
	// AllToAll is the exchange behind an executable redistribution, already
	// applied to the State.
	AllToAll(st *ir.Stmt) error
	// Tick closes every loop iteration (a crash site too, and the place for
	// abort checks).
	Tick() error
	// Branch makes the outcome of a predicate known everywhere, on a backend
	// whose States each interpret for one processor (State.InterpretFor): the
	// processors in set have evaluated it (taken is theirs), every other one
	// learns it. It returns the outcome.
	Branch(st *ir.Stmt, set dist.ProcSet, taken bool) (bool, error)
	// HandOff passes the accumulator v of a collective reduction from
	// processor from, which holds it, to the processors in to, which are about
	// to update it (a bound State's reduction is folded in iteration order).
	HandOff(v *ir.Var, from int, to dist.ProcSet) error
	// MergeRow precedes each hop of a privatized combine's tree merge, the
	// Loser's row about to be folded into the Winner's, and follows the last
	// one with the merged row (Winner -1), about to be folded into the
	// accumulator everywhere: where States hold only their processor's own
	// row, it ships it.
	MergeRow(c *spmd.Combine, h MergeHop, row []float64) error
	// Operands brings, on a backend of bound States, the element of one
	// requirement of a privatized elementwise update — which the plan ships
	// nowhere, consuming operands where the data lives — to the processor
	// that accumulates it, where it lives elsewhere: hoisted, at the loop
	// entry, or per instance.
	Operands(req *comm.Requirement) error
	// Iteration closes n iterations of a quiet owner run, whose statement
	// instances issued nothing of their own: for each, their charges —
	// guards, transfers and computes — in order, then what Tick does. With
	// no charges, they are iterations a State bound to a processor skipped
	// in a shrunk loop (walker.shrink). It returns how many it closed: n, or
	// as many as up to and including the one that failed. A backend may
	// close them all at once — the charges of n rounds, one tick — where
	// nothing it does or observes at an iteration's end could tell, and
	// closes them one at a time (EachIteration) where something could.
	Iteration(charges []Charge, n int64) (int64, error)
}

// EachIteration closes n iterations one at a time, each by close, up to the
// first that fails: Ops.Iteration for a backend that has something to do or
// to stop at in every iteration.
func EachIteration(n int64, close func() error) (int64, error) {
	for k := int64(1); ; k++ {
		if err := close(); err != nil || k == n {
			return k, err
		}
	}
}

// Charge is one resolved charge of a quiet owner run (see schedule.resolve):
// the guard of a per-instance requirement, paid by every processor (Req set,
// From -1); the transfer of its element from processor From to Set — to To
// where Set is that one processor, -1 otherwise (Req set); or the compute that
// closes an instance of Stmt, Flops operations on Set (Req nil). A guard's and
// a compute's From and To are -1.
type Charge struct {
	Req      *comm.Requirement
	Stmt     *ir.Stmt
	Set      dist.ProcSet
	Flops    int
	From, To int32
}

// Issue makes the charge through to's Guard, Transfer or Compute — the
// operation it stands for, on a backend that sees each one; elem is the size
// of a transferred element.
func (c *Charge) Issue(to interface {
	Guard(req *comm.Requirement)
	Transfer(req *comm.Requirement, op InstanceOp) error
	Compute(st *ir.Stmt, set dist.ProcSet, flops int)
}, elem int64) {
	switch {
	case c.Req == nil:
		to.Compute(c.Stmt, c.Set, c.Flops)
	case c.From < 0:
		to.Guard(c.Req)
	default:
		_ = to.Transfer(c.Req, InstanceOp{From: int(c.From), Dst: c.Set, Bytes: elem})
	}
}

// Run interprets the program over s on the schedule, from the top or from a
// cursor captured at an earlier CheckpointSite (see WalkResume). elemBytes is
// the size of one transferred element.
func Run(s *State, ops Ops, elemBytes int64, from *Cursor) error {
	s.sched = schedule{st: s, ops: ops, elem: elemBytes}
	if a, ok := ops.(interface{ account() *Account }); ok {
		s.sched.lists = s.proc < 0 && a.account().stopless
	}
	return WalkResume(s, &s.sched, from)
}

// schedule turns the walk's events into operations.
type schedule struct {
	st   *State
	ops  Ops
	elem int64
	run  runCharges // stands in for ops while resolve lists an owner run's charges
	// lists: an owner run's per-instance transfers are charges of its list,
	// not operations of their own (runCharges.Transfer) — where the State
	// interprets for every processor, so that nothing it holds is a
	// transfer's payload, and ops embeds an accountant on which no site
	// inside an iteration can stop the run (Account.stopless).
	lists bool
}

// privArray reports a statement that updates a privatized elementwise
// reduction: its instances accumulate into the partial row of the data owner,
// so the operands are consumed where they live and nothing is shipped —
// neither hoisted nor per instance.
func (d *schedule) privArray(sp *spmd.StmtPlan) bool {
	return sp != nil && d.st.PrivatizedActive(sp.Combine) && sp.Combine.Mapping == nil
}

func (d *schedule) LoopEntry(l *ir.Loop, lp *spmd.LoopPlan) error {
	if len(lp.Hoisted) > 0 || l.Parent == nil {
		if err := d.ops.CheckpointSite(); err != nil {
			return err
		}
	}
	for _, req := range lp.Hoisted {
		if sp := d.st.Prog.PlanOf(req.Stmt); d.privArray(sp) {
			if d.st.proc >= 0 && d.st.code.reqs[req.ID].operand {
				if err := d.ops.Operands(req); err != nil {
					return err
				}
			}
			continue
		}
		op, err := d.st.VectorizedOp(req, d.elem)
		if err != nil {
			return err
		}
		if op.Kind == VecSkip {
			continue // nothing moved: not a crash site either
		}
		if err := d.ops.Vectorized(req, op); err != nil {
			return err
		}
		if err := d.ops.CrashSite(); err != nil {
			return err
		}
	}
	return nil
}

// LoopExit runs the reduction combines attached to the loop — privatized ones
// merge their partial tables through the deterministic tree, collective ones
// are the §2.3 global reduction — then the lastprivate copy-outs.
func (d *schedule) LoopExit(l *ir.Loop, lp *spmd.LoopPlan) error {
	s := d.st
	for _, c := range lp.Combines {
		var err error
		switch {
		case s.PrivatizedActive(c):
			elems := s.PartialElems(c)
			var hops []MergeHop
			if hops, err = s.mergePartials(c, d.ops.MergeRow); err == nil {
				err = d.ops.TreeMerge(c, elems, hops)
			}
		case c.Mapping != nil:
			set := s.ScalarSet(c.Mapping)
			err = d.ops.Reduce(c.Mapping, set)
			s.Hold(c.Var(), set)
			// (A collective elementwise reduction has no combine operation:
			// its reference execution is plain per-instance owner-computes.)
		}
		if err != nil {
			return err
		}
	}
	all := dist.AllProcs(s.grid)
	for _, m := range lp.CopyOuts {
		// The walker leaves the loop index at its final executed value, so
		// the pattern's owners are the final iteration's owners.
		src := s.ScalarSet(m)
		if src.Count() == all.Count() {
			continue // degenerate alignment: already everywhere
		}
		if err := d.ops.CopyOut(m, src.First()); err != nil {
			return err
		}
		s.Hold(m.Def.Var, all)
	}
	return nil
}

func (d *schedule) Statement(_ *ir.Stmt, sp *spmd.StmtPlan) error {
	return d.instance(sp, d.ops)
}

// instance is the one definition of what a statement instance issues, and in
// which order: to the backend's operations, now, or to the charge list of the
// owner run it opens (resolve).
func (d *schedule) instance(sp *spmd.StmtPlan, to Ops) error {
	s, st := d.st, sp.Stmt
	if d.privArray(sp) {
		// The compute charge lands on the data owners.
		var set dist.ProcSet
		var err error
		if ref := sp.Combine.Red.DataRef; ref != nil {
			set, err = s.OwnerSet(ref)
		} else {
			set, err = s.ExecSet(sp)
		}
		if err != nil {
			return err
		}
		for i := 0; i < len(sp.PerInstance) && s.proc >= 0; i++ {
			if req := sp.PerInstance[i]; s.code.reqs[req.ID].operand {
				if err := to.Operands(req); err != nil {
					return err
				}
			}
		}
		to.Compute(st, set, sp.Flops)
		return nil
	}
	for _, req := range sp.PerInstance {
		op, err := s.InstanceOp(req, sp, d.elem)
		if err != nil {
			return err
		}
		// Communication left inside a loop defeats loop-bound shrinking:
		// every processor traverses the iteration space evaluating the
		// guard, whether or not it communicates.
		to.Guard(req)
		if op.Skip {
			continue
		}
		if err := to.Transfer(req, op); err != nil {
			return err
		}
		if err := to.CrashSite(); err != nil {
			return err
		}
	}
	set, err := s.ExecSet(sp)
	if err != nil {
		return err
	}
	if c := sp.Combine; c != nil && c.Mapping != nil && s.proc >= 0 && !s.PrivatizedActive(c) {
		// A collective reduction's update, on States that each hold their
		// processor's values: the accumulator goes where this instance
		// updates it.
		if h := s.held[c.Var().Slot]; !h.CoversSet(set) {
			if err := to.HandOff(c.Var(), h.First(), set); err != nil {
				return err
			}
		}
	}
	to.Compute(st, set, sp.Flops)
	return nil
}

// runCharges takes the backend's place while resolve issues an owner run's
// instances: a guard or a compute is listed in the State's scratch, not
// charged, and so is a transfer where the schedule lists them. Elsewhere a
// transfer marks the run loud — it is a crash site that can stop the run
// inside an iteration and (in exec) stores into the image its statement is
// about to read, so such a run's operations stay with their instances; a
// hand-off or an operand delivery too.
type runCharges struct {
	Ops  // the backend's: an instance issues none of the others
	st   *State
	loud bool
}

func (r *runCharges) list(c Charge) { r.st.charges = append(r.st.charges, c) }

// listStrip lists, once per owner run, its charges as the machine makes a strip
// of them (machine.ComputeStrip), with the processors each names — Set's, a
// transfer's sender excluded — in s.listed: only an accountant asks.
func (s *State) listStrip(charges []Charge, p machine.Params) []machine.Listed {
	if len(s.strip) == len(charges) {
		return s.strip
	}
	for i := range charges {
		c, lo := &charges[i], len(s.listed)
		if c.To < 0 { // (a transfer to one processor needs no list)
			s.listed = c.Set.Append(s.listed, int(c.From))
		}
		t := float64(c.Flops) * p.FlopTime
		if c.Req != nil {
			t = p.GuardTime // (a transfer's is not read)
		}
		s.strip = append(s.strip, machine.Listed{T: t, From: c.From, To: c.To,
			Lo: int32(lo), N: int32(len(s.listed) - lo)})
	}
	return s.strip
}

func (r *runCharges) Transfer(req *comm.Requirement, op InstanceOp) error {
	if !r.st.sched.lists {
		r.loud = true
		return nil
	}
	to, one := op.Dst.IsSingle()
	if !one {
		to = -1
	}
	r.list(Charge{Req: req, Stmt: req.Stmt, Set: op.Dst, From: int32(op.From), To: int32(to)})
	return nil
}
func (r *runCharges) HandOff(*ir.Var, int, dist.ProcSet) error { r.loud = true; return nil }
func (r *runCharges) Operands(*comm.Requirement) error         { r.loud = true; return nil }
func (r *runCharges) CrashSite() error                         { return nil }
func (r *runCharges) Guard(req *comm.Requirement) {
	r.list(Charge{Req: req, Stmt: req.Stmt, Set: dist.AllProcs(r.st.grid), From: -1, To: -1})
}
func (r *runCharges) Compute(st *ir.Stmt, set dist.ProcSet, flops int) {
	r.list(Charge{Stmt: st, Set: set, Flops: flops, From: -1, To: -1})
}

// resolve issues one instance of each statement of the owner run just opened
// to its charge list, filling the set table on the way: quiet is nil when the
// run is loud, ok false when a set cannot be evaluated (the iteration takes
// the general walk, which fails where it always did).
func (d *schedule) resolve(stmts []stmtCode) (quiet []Charge, ok bool) {
	s := d.st
	s.charges, s.listed, s.strip = s.charges[:0], s.listed[:0], s.strip[:0]
	d.run = runCharges{Ops: d.ops, st: s}
	for i := range stmts {
		if d.instance(stmts[i].plan, &d.run) != nil {
			return nil, false
		}
	}
	if d.run.loud {
		return nil, true
	}
	return s.charges, true
}

func (d *schedule) Redistribute(st *ir.Stmt) error {
	if err := d.ops.AllToAll(st); err != nil {
		return err
	}
	return d.ops.CrashSite()
}

func (d *schedule) Tick() error { return d.ops.Tick() }
