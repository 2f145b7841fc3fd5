// The accountant: the cost-model half of every operation of the schedule. The
// simulator's operations are these charges; the concurrent executor's
// accountant (worker 0, or every worker when faults or checkpoints are on)
// makes them before it transmits — which is what keeps the two backends'
// statistics, simulated time and fault draws identical.
package eval

import (
	"phpf/internal/comm"
	"phpf/internal/core"
	"phpf/internal/dist"
	"phpf/internal/fault"
	"phpf/internal/ir"
	"phpf/internal/machine"
	"phpf/internal/spmd"
)

// Account charges the operations of the schedule to a simulated machine. It
// implements every operation of Ops but CrashSite, Tick and Iteration (its
// Charges, then a tick), which can end a run and are the backend's, so a
// backend that only models the machine embeds it. A charge cannot fail: the
// error results are Ops's and always nil.
type Account struct {
	// M is the machine charged: its Time and Stats are the run's.
	M *machine.Machine

	st  *State
	inj *fault.Injector // nil on fault-free runs
	// stopless: no site inside an iteration can stop the run — no fault plan
	// fires a crash there and no time limit ends it — so a per-instance
	// transfer may be charged from its owner run's list (schedule.lists).
	stopless bool
	// interval is the checkpoint interval; lastCkpt the simulated time of the
	// last coordinated checkpoint or recovery (the free one at t=0 until then).
	interval, lastCkpt float64
}

// NewAccount returns the accountant of a run over st. cfg.Params must be set.
func NewAccount(st *State, cfg RunOptions) *Account {
	a := &Account{M: machine.New(st.grid, cfg.Params), st: st,
		inj: fault.NewInjector(cfg.Fault), interval: cfg.CheckpointInterval}
	a.M.Fault = a.inj
	a.stopless = a.inj == nil && cfg.MaxSeconds == 0
	st.accounted = true
	return a
}

// account is what Run asks of an Ops that embeds the accountant.
func (a *Account) account() *Account { return a }

func (a *Account) elem() int64       { return a.M.Params.ElemBytes }
func (a *Account) all() dist.ProcSet { return dist.AllProcs(a.st.grid) }

// CheckpointSite charges the checkpoint, when one is due.
func (a *Account) CheckpointSite() error {
	a.Checkpoint()
	return nil
}

// Vectorized charges one hoisted communication.
func (a *Account) Vectorized(req *comm.Requirement, op VectorizedOp) error {
	a.M.SetAttr(req.Stmt.ID, req.ID, req.Class)
	switch op.Kind {
	case VecShift:
		a.M.Shift(op.Participants, op.PerProc)
	case VecBcast:
		a.M.Multicast(op.From, op.Dst, op.Bytes)
	case VecExchange:
		a.M.Exchange(op.Src, op.Dst, op.Bytes)
	}
	return nil
}

// Guard charges every processor the ownership test of one per-instance
// requirement.
func (a *Account) Guard(req *comm.Requirement) {
	a.M.SetAttr(req.Stmt.ID, req.ID, req.Class)
	if g := a.M.Params.GuardTime; g > 0 {
		a.M.Compute(a.all(), g)
	}
}

// Transfer charges one per-instance element transfer.
func (a *Account) Transfer(req *comm.Requirement, op InstanceOp) error {
	a.M.SetAttr(req.Stmt.ID, req.ID, req.Class)
	if to, one := op.Dst.IsSingle(); one {
		a.M.Send(op.From, to, op.Bytes)
	} else {
		a.M.Multicast(op.From, op.Dst, op.Bytes)
	}
	return nil
}

// Compute charges a statement instance's computation to its execution set.
func (a *Account) Compute(st *ir.Stmt, set dist.ProcSet, flops int) {
	if flops > 0 {
		a.M.SetAttr(st.ID, -1, dist.CommNone)
		a.M.Compute(set, float64(flops)*a.M.Params.FlopTime)
	}
	a.M.ClearAttr()
}

// Charges makes the charges of n iterations of a quiet owner run: n rounds of
// what Guard, Transfer and Compute charge, in order, to processors the run has
// listed — in one machine operation (ComputeStrip) where nothing sees a charge
// on its own; where something does, by Guard, Transfer and Compute themselves.
func (a *Account) Charges(charges []Charge, n int64) {
	if a.M.ComputeStrip(n, a.st.listStrip(charges, a.M.Params), a.st.listed) {
		return
	}
	for ; n > 0; n-- {
		for i := range charges {
			charges[i].Issue(a, a.elem())
		}
	}
}

// defStmt is the statement a mapped scalar's charges are attributed to.
func defStmt(m *core.ScalarMapping) int {
	if m.Def != nil && m.Def.Stmt != nil {
		return m.Def.Stmt.ID
	}
	return -1
}

// Reduce charges the collective combine of a reduction scalar over set.
func (a *Account) Reduce(m *core.ScalarMapping, set dist.ProcSet) error {
	a.M.SetAttr(defStmt(m), -1, dist.CommNone)
	a.M.Reduce(set, a.elem())
	a.M.ClearAttr()
	return nil
}

// TreeMerge charges the merge of a privatized combine's partial rows.
func (a *Account) TreeMerge(c *spmd.Combine, elems int64, _ []MergeHop) error {
	a.M.SetAttr(c.Red.Stmt.ID, -1, dist.CommNone)
	a.M.TreeMerge(a.all(), elems*a.elem(), a.st.Prog.NProcs())
	a.M.ClearAttr()
	return nil
}

// CopyOut charges a lastprivate scalar's broadcast from root, after which
// the scalar is replicated again.
func (a *Account) CopyOut(m *core.ScalarMapping, root int) error {
	a.M.SetAttr(defStmt(m), -1, dist.CommBcast)
	a.M.Multicast(root, a.all(), a.elem())
	a.M.ClearAttr()
	return nil
}

// AllToAll charges the exchange an executable redistribution performs.
func (a *Account) AllToAll(st *ir.Stmt) error {
	a.M.SetAttr(st.ID, -1, dist.CommGeneral)
	a.M.AllToAll(a.all(), a.st.RedistBytesPerProc(st, a.elem()))
	a.M.ClearAttr()
	return nil
}

// Branch, HandOff, MergeRow and Operands move values between States that each hold
// their processor's: nothing the cost model charges, and nothing for one
// State that holds every processor's.
func (a *Account) Branch(_ *ir.Stmt, _ dist.ProcSet, taken bool) (bool, error) { return taken, nil }
func (a *Account) HandOff(*ir.Var, int, dist.ProcSet) error                    { return nil }
func (a *Account) MergeRow(*spmd.Combine, MergeHop, []float64) error           { return nil }
func (a *Account) Operands(*comm.Requirement) error                            { return nil }

// Checkpoint takes a coordinated checkpoint (each processor's partition of
// the arrays plus its scalar copies, written to stable storage at link speed)
// when the interval has elapsed since the last one, and reports whether.
func (a *Account) Checkpoint() bool {
	if a.interval <= 0 || a.M.Time()-a.lastCkpt < a.interval {
		return false
	}
	a.M.ClearAttr()
	a.M.Checkpoint(CheckpointBytes(a.st, a.elem()))
	a.lastCkpt = a.M.Time()
	return true
}

// Recover charges the restoration of processor proc after a fail-stop crash
// at simulated time at. Every processor rolls back to the last coordinated
// checkpoint and re-executes the lost interval; the restarted processor also
// refetches the state its mapping does not replicate: its partitions of
// distributed arrays and the live copies of aligned privatized scalars.
// Replicated copies — the paper's replication mapping — restore locally at
// zero communication cost, the robustness dividend of that mapping choice.
func (a *Account) Recover(proc int, at float64) {
	lost := at - a.lastCkpt
	if lost < 0 {
		lost = 0
	}
	var bytes, msgs int64
	for _, it := range RefetchItems(a.st, proc, a.elem()) {
		bytes += it.Bytes
		msgs++
	}
	a.M.Recover(proc, lost, bytes, msgs)
	// Recovery reestablishes a consistent global state.
	a.lastCkpt = a.M.Time()
}

// RecoverCrashes fires every crash that has come due and returns them.
// Recovery advances the clocks, which may bring the next scheduled crash due,
// so it drains until quiescent (each crash fires exactly once).
func (a *Account) RecoverCrashes() []fault.Crash {
	if a.inj == nil {
		return nil
	}
	var fired []fault.Crash
	for c := a.inj.PendingCrash(a.M.Time()); c != nil; c = a.inj.PendingCrash(a.M.Time()) {
		a.Recover(c.Proc, a.M.Time())
		fired = append(fired, *c)
	}
	a.M.ClearAttr() // the site's operation is over; a later crash is nobody's
	return fired
}
