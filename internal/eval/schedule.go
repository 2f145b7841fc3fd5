// The communication schedule: which operation happens where. It is the one
// consumer of the spmd plan's loop and statement annotations (hoisted
// requirements, combines, copy-outs, per-instance requirements) and the one
// place that fixes their order and where the checkpoint and crash-check sites
// fall, and the one caller of the account that charges them (Meter). The two
// execution backends implement what an operation does beyond its charge (Ops)
// and nothing of the order, so they cannot disagree on it.
package eval

import (
	"phpf/internal/comm"
	"phpf/internal/core"
	"phpf/internal/dist"
	"phpf/internal/ir"
	"phpf/internal/machine"
	"phpf/internal/spmd"
)

// Ops is what a backend does at each operation of the schedule beside its
// charge, which the schedule makes itself (Meter): the traffic of a State
// bound to a processor, and the sites where a run can stop. Decisions arrive
// resolved — an operation is told who sends what to whom, never asked to read
// the plan. An error aborts the walk. A backend whose one State holds every
// processor's values has no traffic (Unbound).
type Ops interface {
	// Checkpoint follows a coordinated checkpoint the account took at a
	// checkpoint site: the entry of an outermost loop or of one with hoisted
	// communication, before any of it (nothing aggregated is in flight, so a
	// consistent checkpoint needs no draining). State.Cursor names the point.
	Checkpoint() error
	// CrashSite is a point where scheduled fail-stop crashes that have come
	// due fire: after each hoisted communication, per-instance transfer and
	// redistribution that took place (a skipped one is not a site).
	CrashSite() error
	// Vectorized performs one hoisted communication (never a VecSkip).
	Vectorized(req *comm.Requirement, op VectorizedOp) error
	// Transfer moves the element of one per-instance requirement.
	Transfer(req *comm.Requirement, op InstanceOp) error
	// CopyOut broadcasts a lastprivate scalar's final value from root.
	CopyOut(m *core.ScalarMapping, root int) error
	// AllToAll is the exchange behind an executable redistribution, already
	// applied to the State.
	AllToAll(st *ir.Stmt) error
	// Tick closes every loop iteration (a crash site too, and the place for
	// abort checks).
	Tick() error
	// Move, on a backend of bound States, moves what the cost model does not
	// charge: processor from sends payload to the processors of in outside
	// except (from among them), each taking it into its own payload.
	Move(kind MoveKind, from int, in, except dist.ProcSet, payload []float64) error
	// Operands brings, on a backend of bound States, the element of one
	// requirement of a privatized elementwise update — which the plan ships
	// nowhere, consuming operands where the data lives — to the processor
	// that accumulates it, where it lives elsewhere: hoisted, at the loop
	// entry, or per instance.
	Operands(req *comm.Requirement) error
}

// MoveKind is what an Ops.Move carries; the schedule resolves whom to.
type MoveKind uint8

const (
	MoveOutcome  MoveKind = iota // a predicate's outcome (schedule.outcome)
	MoveHandOff                  // a collective accumulator (schedule.handOff)
	MoveMergeHop                 // a partial row, loser to winner (State.mergePartials)
	MoveMerged                   // the merged row, processor 0 to every other
)

// Unbound is the traffic of a backend whose one State holds every
// processor's values: none. Such a backend embeds it beside its sites.
type Unbound struct{}

func (Unbound) Checkpoint() error                                               { return nil }
func (Unbound) Vectorized(*comm.Requirement, VectorizedOp) error                { return nil }
func (Unbound) Transfer(*comm.Requirement, InstanceOp) error                    { return nil }
func (Unbound) CopyOut(*core.ScalarMapping, int) error                          { return nil }
func (Unbound) AllToAll(*ir.Stmt) error                                         { return nil }
func (Unbound) Move(MoveKind, int, dist.ProcSet, dist.ProcSet, []float64) error { return nil }
func (Unbound) Operands(*comm.Requirement) error                                { return nil }

// Charge is one resolved charge of a statement instance (schedule.charge), as
// a quiet owner run lists them (schedule.resolve): the guard of a
// per-instance requirement, paid by every processor (Req set, From -1); the
// transfer of its element from processor From to Set — to To where Set is
// that one processor, -1 otherwise (Req set); or the compute that closes an
// instance of Stmt, Flops operations on Set (Req nil). A guard's and a
// compute's From and To are -1.
type Charge struct {
	Req      *comm.Requirement
	Stmt     *ir.Stmt
	Set      dist.ProcSet
	Flops    int
	From, To int32
}

// Meter is how the schedule of a run charges its operations.
type Meter struct {
	// Account is charged at each operation, before the backend performs it;
	// nil where the State keeps none.
	Account *Account
	// Replay, while it points at true, suspends the charges: the run is
	// re-executing an interval it charged before a restore.
	Replay *bool
	// EachTick has every quiet iteration closed on its own, with its tick,
	// where the backend has something to do or to see at each one
	// (schedule.iterations).
	EachTick bool
}

// Run interprets the program over s on the schedule, from the top or from a
// cursor captured at an earlier checkpoint site (see WalkResume), charging as
// m says. elemBytes is the size of one transferred element.
func Run(s *State, ops Ops, m Meter, elemBytes int64, from *Cursor) error {
	a := m.Account
	s.sched = schedule{st: s, ops: ops, acct: a, replay: m.Replay, elem: elemBytes,
		each:  m.EachTick || a != nil && !a.stopless,
		lists: s.proc < 0 && a != nil && a.stopless}
	return WalkResume(s, &s.sched, from)
}

// chargeSeam, nil outside tests, sees each charge of the schedule, in order,
// as the Account method that takes it and that method's arguments — whether or
// not the State keeps an account.
var chargeSeam func(method string, args ...any)

// schedule turns the walk's events into charges and operations.
type schedule struct {
	st     *State
	ops    Ops
	acct   *Account
	replay *bool
	elem   int64
	// each: a quiet owner run's iterations are closed one at a time
	// (iterations) — the backend asked for it, or a site at an iteration's
	// end can stop the run (Account.stopless).
	each bool
	// lists: an owner run's per-instance transfers are charges of its list,
	// not operations of their own — where the State interprets for every
	// processor, so that nothing it holds is a transfer's payload, and the
	// account is one on which no site inside an iteration can stop the run.
	lists bool
	// listing: resolve is issuing an owner run's instances to its charge list
	// (State.charges), not to the account and the backend; loud, that one of
	// them made a move or a transfer a list cannot hold.
	listing, loud bool
}

// charging is the schedule's one charge point: the account the operation in
// hand is charged to — none where the State keeps none, or while the run
// replays an interval charged before a restore.
func (d *schedule) charging() *Account {
	if d.replay != nil && *d.replay {
		return nil
	}
	return d.acct
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
		if chargeSeam != nil {
			chargeSeam("Checkpoint")
		}
		if a := d.charging(); a != nil && a.Checkpoint() {
			if err := d.ops.Checkpoint(); err != nil {
				return err
			}
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
		if chargeSeam != nil {
			chargeSeam("Vectorized", req, op)
		}
		if a := d.charging(); a != nil {
			a.Vectorized(req, op)
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
			if _, err = s.mergePartials(c, d.ops); err == nil {
				if chargeSeam != nil {
					chargeSeam("TreeMerge", c, elems)
				}
				if a := d.charging(); a != nil {
					a.TreeMerge(c, elems)
				}
			}
		case c.Mapping != nil:
			// No value travels in the combine itself: the accumulator was
			// folded in iteration order where the updates ran, and the
			// hand-off brings its combined value to every member of set.
			set := s.ScalarSet(c.Mapping)
			if err = d.handOff(c.Var(), set); err == nil {
				if chargeSeam != nil {
					chargeSeam("Reduce", c.Mapping, set)
				}
				if a := d.charging(); a != nil {
					a.Reduce(c.Mapping, set)
				}
			}
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
		if chargeSeam != nil {
			chargeSeam("CopyOut", m, src.First())
		}
		if a := d.charging(); a != nil {
			a.CopyOut(m, src.First())
		}
		if err := d.ops.CopyOut(m, src.First()); err != nil {
			return err
		}
		s.Hold(m.Def.Var, all)
	}
	return nil
}

func (d *schedule) Statement(_ *ir.Stmt, sp *spmd.StmtPlan) error {
	return d.instance(sp)
}

// instance is the one definition of what a statement instance issues, and in
// which order: charges and operations now, or to the charge list of the owner
// run it opens (resolve, listing).
func (d *schedule) instance(sp *spmd.StmtPlan) error {
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
				if d.listing {
					d.loud = true
				} else if err := d.ops.Operands(req); err != nil {
					return err
				}
			}
		}
		d.charge(Charge{Stmt: st, Set: set, Flops: sp.Flops, From: -1, To: -1})
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
		d.charge(Charge{Req: req, Stmt: req.Stmt, Set: dist.AllProcs(s.grid), From: -1, To: -1})
		if op.Skip {
			continue
		}
		to, one := op.Dst.IsSingle()
		if !one {
			to = -1
		}
		// Where the schedule does not list transfers a listed one is loud: its
		// crash site can stop the run inside an iteration and (on a bound
		// State) it stores into the image its statement is about to read, so
		// such a run's operations stay with their instances.
		d.loud = d.loud || d.listing && !d.lists
		d.charge(Charge{Req: req, Stmt: req.Stmt, Set: op.Dst, From: int32(op.From), To: int32(to)})
		if d.listing {
			continue
		}
		if err := d.ops.Transfer(req, op); err != nil {
			return err
		}
		if err := d.ops.CrashSite(); err != nil {
			return err
		}
	}
	set, err := s.ExecSet(sp)
	if err != nil {
		return err
	}
	if c := sp.Combine; c != nil && c.Mapping != nil && !s.PrivatizedActive(c) {
		if err := d.handOff(c.Var(), set); err != nil { // a collective update
			return err
		}
	}
	for i := 0; s.proc >= 0 && i < len(s.code.reads[st.ID]); i++ {
		if err := d.handOff(s.code.reads[st.ID][i], set); err != nil {
			return err
		}
	}
	d.charge(Charge{Stmt: st, Set: set, Flops: sp.Flops, From: -1, To: -1})
	return nil
}

// charge makes one charge of a statement instance — a guard, a transfer or
// the compute that closes it: to the charge list of the owner run resolve
// lists, or now.
func (d *schedule) charge(c Charge) {
	if d.listing {
		d.st.charges = append(d.st.charges, c)
		return
	}
	if chargeSeam != nil {
		chargeSeam("Charge", c)
	}
	if a := d.charging(); a != nil {
		a.charge(&c)
	}
}

// iterations is the one strip closer: it closes n iterations of a quiet owner
// run, whose statement instances made no operation of their own — for each,
// their charges (guards, transfers and computes) in order, then a tick. With
// no charges, they are iterations a State bound to a processor skipped in a
// shrunk loop (walker.shrink). It returns how many it closed: n, or as many as
// up to and including the one whose tick failed. Where nothing at an
// iteration's end can stop the run or be seen (each unset), the n rounds of
// charges are one (Account.Charges) and the tick one; otherwise each
// iteration is closed on its own.
func (d *schedule) iterations(charges []Charge, n int64) (int64, error) {
	k := n
	if d.each {
		k = 1
	}
	for done := k; ; done += k {
		if chargeSeam != nil {
			chargeSeam("Charges", charges, k)
		}
		if a := d.charging(); a != nil {
			a.Charges(charges, k)
		}
		if err := d.ops.Tick(); err != nil || done == n {
			return done, err
		}
	}
}

// handOff is the one rule by which a collective reduction's accumulator v
// moves between States that each hold their processor's values: it goes where
// it is needed next — to the processors of set, about to update, read (a
// conditional update's predicate, say) or combine it — from a holder of its
// running value, in its slot, to those of set that do not hold it, and set
// holds it then (dropping the others costs at most a message; a union of two
// boxes can name processors that hold nothing). An owner run's listing only
// notes the move, which makes the run loud, walked instance by instance.
func (d *schedule) handOff(v *ir.Var, set dist.ProcSet) error {
	s := d.st
	if s.proc < 0 || s.held[v.Slot].CoversSet(set) {
		return nil
	}
	if d.listing {
		d.loud = true
		return nil
	}
	held := s.held[v.Slot]
	s.held[v.Slot] = set
	return d.ops.Move(MoveHandOff, held.First(), set, held, s.ScalarSlot(v))
}

// outcome is the one destination rule of a predicate's outcome, on bound
// States: the first processor of set, which evaluated it (taken, where set
// holds the State's), tells those outside set that walk its IF — every one,
// or the account keepers alone where aside says the others leave the IF aside
// (State.aside). The payload names the instance by its write stamp, the same
// on every State, signed as the outcome.
func (d *schedule) outcome(st *ir.Stmt, set dist.ProcSet, taken, aside bool) (bool, error) {
	s, in := d.st, dist.AllProcs(d.st.grid)
	if aside {
		in = s.keepers
	}
	if s.told[0] = float64(stampOf(s.epoch, st.ID)); !taken {
		s.told[0] = -s.told[0]
	}
	err := d.ops.Move(MoveOutcome, set.First(), in, set, s.told[:])
	return s.told[0] > 0, err
}

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

// resolve issues one instance of each statement of the owner run just opened
// to its charge list, filling the set table on the way: quiet is nil when the
// run is loud, ok false when a set cannot be evaluated (the iteration takes
// the general walk, which fails where it always did). A run that reads an
// accumulator (code.reads) is loud on a bound State: its holders move
// within an iteration, where the listing sees only the first.
func (d *schedule) resolve(stmts []stmtCode) (quiet []Charge, ok bool) {
	s := d.st
	s.charges, s.listed, s.strip = s.charges[:0], s.listed[:0], s.strip[:0]
	d.listing, d.loud = true, false
	for i := range stmts {
		if d.instance(stmts[i].plan) != nil {
			d.listing = false
			return nil, false
		}
		d.loud = d.loud || s.proc >= 0 && s.code.reads[stmts[i].plan.Stmt.ID] != nil
	}
	if d.listing = false; d.loud {
		return nil, true
	}
	return s.charges, true
}

func (d *schedule) Redistribute(st *ir.Stmt) error {
	if chargeSeam != nil {
		chargeSeam("AllToAll", st)
	}
	if a := d.charging(); a != nil {
		a.AllToAll(st)
	}
	if err := d.ops.AllToAll(st); err != nil {
		return err
	}
	return d.ops.CrashSite()
}

func (d *schedule) Tick() error { return d.ops.Tick() }
