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
	"phpf/internal/spmd"
)

// Ops is what a backend does at each operation of the schedule: the
// simulator charges its machine (see Account), the concurrent executor has
// its accountant charge the same and then transmits. Decisions arrive
// resolved — an operation is told who sends what to whom, never asked to read
// the plan. An error aborts the walk.
type Ops interface {
	// Boundary opens every loop entry, loop exit and redistribution: the
	// per-instance transfers of the statements before it are complete.
	Boundary() error
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
	// Iteration closes an iteration of a quiet owner run, whose statement
	// instances issued nothing: their charges, in order, then what Tick does.
	Iteration(charges []Charge) error
}

// Charge is one resolved charge of a quiet owner run (see schedule.resolve):
// the guard of a per-instance requirement, paid by every processor, or the
// compute that closes an instance of Stmt, Flops operations on Set.
type Charge struct {
	Req   *comm.Requirement // the guard's requirement; nil for a compute
	Stmt  *ir.Stmt
	Set   dist.ProcSet
	Flops int
	procs []int32 // Set's processors, ascending, listed once for the run
}

// Run interprets the program over s on the schedule, from the top or from a
// cursor captured at an earlier CheckpointSite (see WalkResume). elemBytes is
// the size of one transferred element.
func Run(s *State, ops Ops, elemBytes int64, from *Cursor) error {
	return WalkResume(s, &schedule{st: s, ops: ops, elem: elemBytes}, from)
}

// schedule turns the walk's events into operations.
type schedule struct {
	st   *State
	ops  Ops
	elem int64
	run  runCharges // stands in for ops while resolve lists an owner run's charges
}

// privArray reports a statement that updates a privatized elementwise
// reduction: its instances accumulate into the partial row of the data owner,
// so the operands are consumed where they live and nothing is shipped —
// neither hoisted nor per instance.
func (d *schedule) privArray(sp *spmd.StmtPlan) bool {
	return sp != nil && d.st.PrivatizedActive(sp.Combine) && sp.Combine.Mapping == nil
}

func (d *schedule) LoopEntry(l *ir.Loop, lp *spmd.LoopPlan) error {
	if err := d.ops.Boundary(); err != nil {
		return err
	}
	if len(lp.Hoisted) > 0 || l.Parent == nil {
		if err := d.ops.CheckpointSite(); err != nil {
			return err
		}
	}
	for _, req := range lp.Hoisted {
		if d.privArray(d.st.Prog.PlanOf(req.Stmt)) {
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
	if err := d.ops.Boundary(); err != nil {
		return err
	}
	for _, c := range lp.Combines {
		var err error
		switch {
		case s.PrivatizedActive(c):
			elems := s.PartialElems(c)
			var hops []MergeHop
			if hops, err = s.MergePartials(c); err == nil {
				err = d.ops.TreeMerge(c, elems, hops)
			}
		case c.Mapping != nil:
			err = d.ops.Reduce(c.Mapping, s.ScalarSet(c.Mapping))
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
	to.Compute(st, set, sp.Flops)
	return nil
}

// runCharges takes the backend's place while resolve issues an owner run's
// instances: a guard or a compute is listed in the State's scratch, not
// charged, and a transfer marks the run loud — it reads two clocks, is a crash
// site and (in exec) checksums the image its statement is about to change, so
// such a run's operations stay with their instances.
type runCharges struct {
	Ops  // the backend's: an instance issues none of the others
	st   *State
	loud bool
}

func (r *runCharges) list(c Charge) {
	s := r.st
	lo := len(s.listed)
	c.Set.Each(func(p int) { s.listed = append(s.listed, int32(p)) })
	c.procs = s.listed[lo:]
	s.charges = append(s.charges, c)
}

func (r *runCharges) Transfer(*comm.Requirement, InstanceOp) error { r.loud = true; return nil }
func (r *runCharges) CrashSite() error                             { return nil }
func (r *runCharges) Guard(req *comm.Requirement) {
	r.list(Charge{Req: req, Stmt: req.Stmt, Set: dist.AllProcs(r.st.grid)})
}
func (r *runCharges) Compute(st *ir.Stmt, set dist.ProcSet, flops int) {
	r.list(Charge{Stmt: st, Set: set, Flops: flops})
}

// resolve issues one instance of each statement of the owner run just opened
// to its charge list, filling the set table on the way: quiet is nil when the
// run is loud, ok false when a set cannot be evaluated (the iteration takes
// the general walk, which fails where it always did).
func (d *schedule) resolve(stmts []stmtCode) (quiet []Charge, ok bool) {
	s := d.st
	s.charges, s.listed = s.charges[:0], s.listed[:0]
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
	if err := d.ops.Boundary(); err != nil {
		return err
	}
	if err := d.ops.AllToAll(st); err != nil {
		return err
	}
	return d.ops.CrashSite()
}

func (d *schedule) Tick() error { return d.ops.Tick() }
