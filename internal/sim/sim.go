// Package sim executes an SPMD program on the simulated machine. Statement
// instances are interpreted in sequential program order (valid because SPMD
// execution under owner-computes is sequentially consistent with the
// source); each instance advances the clocks of the processors in its
// execution set, per-instance communications synchronize sender and
// receivers, and vectorized communications are charged once per entry of
// their outermost hoisted loop. The program's values are computed for real,
// so results can be validated against sequential references — and the
// concurrent backend (internal/exec) is validated against this simulator by
// the differential oracle.
//
// The interpretation core (value semantics, execution sets, communication
// decisions) lives in internal/eval and is shared with internal/exec; this
// package contributes the cost model, fault injection, and checkpointing.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"phpf/internal/core"
	"phpf/internal/dist"
	"phpf/internal/eval"
	"phpf/internal/fault"
	"phpf/internal/ir"
	"phpf/internal/machine"
	"phpf/internal/spmd"
	"phpf/internal/trace"
)

// Config controls a simulation run.
type Config struct {
	Params machine.Params
	// MaxSeconds aborts the run once the simulated time exceeds this bound
	// (reproducing the paper's ">1 day, aborted" entries). Zero disables.
	MaxSeconds float64
	// Profile collects per-statement simulated-time attribution (compute
	// and communication charged while executing each statement).
	Profile bool
	// Fault, when non-nil and active, injects message loss/duplication,
	// compute slowdowns, and fail-stop crashes (see internal/fault). A nil
	// or inactive plan leaves the fault-free arithmetic bit-identical.
	Fault *fault.Plan
	// CheckpointInterval takes a coordinated checkpoint at
	// hoisted-communication boundaries whenever at least this much
	// simulated time has passed since the last one (0 = only the implicit
	// free checkpoint at t=0). Crash recovery rolls back to the last
	// checkpoint and re-executes the lost interval; the restarted
	// processor refetches aligned and partitioned state, while replicated
	// state restores locally.
	CheckpointInterval float64
	// Trace, when non-nil, records runtime events (stamped with simulated
	// time) into Result.Trace. Nil keeps the event path emission-free.
	Trace *trace.Options
	// MaxCells caps the total array cells of the memory image (0 =
	// unlimited; see eval.Budget). A breach fails the run with a coded
	// E006 diagnostic before the image is allocated.
	MaxCells int64
	// Reduce selects the runtime reduction strategy: ReduceAuto (default)
	// privatizes every reduction the reduceplan cleared, ReduceCollective
	// forces the §2.3 collective for all of them, and ReducePrivatize
	// demands privatization, failing the run (E005) if any recognized
	// reduction is collective-only.
	Reduce core.ReduceMode
}

// Validate rejects configurations that cannot describe a run, mirroring
// machine.Params.Validate: a negative or NaN time limit (the paper's aborted
// entries need a positive bound; zero means unlimited), and a negative,
// NaN, or infinite checkpoint interval (zero means checkpointing off).
// Params and Fault carry their own validators and are checked by Run.
func (c Config) Validate() error {
	if math.IsNaN(c.MaxSeconds) || math.IsInf(c.MaxSeconds, 0) {
		return fmt.Errorf("sim: MaxSeconds must be finite, got %v", c.MaxSeconds)
	}
	if c.MaxSeconds < 0 {
		return fmt.Errorf("sim: MaxSeconds must be >= 0 (0 = unlimited), got %v", c.MaxSeconds)
	}
	if math.IsNaN(c.CheckpointInterval) || math.IsInf(c.CheckpointInterval, 0) {
		return fmt.Errorf("sim: CheckpointInterval must be finite, got %v", c.CheckpointInterval)
	}
	if c.CheckpointInterval < 0 {
		return fmt.Errorf("sim: CheckpointInterval must be >= 0 (0 = off), got %v", c.CheckpointInterval)
	}
	if c.MaxCells < 0 {
		return fmt.Errorf("sim: MaxCells must be >= 0 (0 = unlimited), got %v", c.MaxCells)
	}
	if c.Reduce < core.ReduceAuto || c.Reduce > core.ReducePrivatize {
		return fmt.Errorf("sim: unknown Reduce mode %d", int(c.Reduce))
	}
	return nil
}

// StmtProfile is one statement's share of the simulated activity.
type StmtProfile struct {
	Stmt *ir.Stmt
	// Instances is how many times the statement executed.
	Instances int64
	// Seconds is the total clock advance attributed to the statement
	// (summed over processors).
	Seconds float64
}

// Result is the outcome of one run.
type Result struct {
	Time    float64
	Stats   machine.Stats
	Aborted bool

	// Final memory, for validation against reference implementations.
	Scalars map[string]float64
	Arrays  map[string][]float64

	// Profile holds per-statement attribution when Config.Profile was set,
	// sorted by descending Seconds.
	Profile []StmtProfile

	// Trace holds the recorded event stream when Config.Trace was set
	// (nil otherwise). The simulator emits into a single shard, so
	// Trace.Events() is the exact deterministic program-order stream.
	Trace *trace.Recorder
}

// errAbort signals the MaxSeconds cutoff internally.
type errAbort struct{}

func (errAbort) Error() string { return "simulated time limit exceeded" }

// Run executes the program with cfg.
func Run(p *spmd.Program, cfg Config) (*Result, error) {
	return RunContext(context.Background(), p, cfg)
}

// RunContext executes the program with cfg under a context: cancellation
// aborts the simulation between events (at iteration and communication
// boundaries) and returns ctx.Err().
func RunContext(ctx context.Context, p *spmd.Program, cfg Config) (*Result, error) {
	if p == nil {
		return nil, fmt.Errorf("sim: nil program")
	}
	if cfg.Params == (machine.Params{}) {
		cfg.Params = machine.SP2()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if err := cfg.Fault.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	nprocs := p.Res.Mapping.Grid.Size()
	if cfg.Fault.Active() {
		for _, c := range cfg.Fault.Crashes {
			if c.Proc >= nprocs {
				return nil, fmt.Errorf("sim: crash of processor %d, but the machine has %d", c.Proc, nprocs)
			}
		}
		for _, s := range cfg.Fault.Slowdowns {
			if s.Proc >= nprocs {
				return nil, fmt.Errorf("sim: slowdown of processor %d, but the machine has %d", s.Proc, nprocs)
			}
		}
	}
	st, err := eval.NewStateBudget(p, eval.Budget{MaxCells: cfg.MaxCells})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if err := st.ConfigureReduce(cfg.Reduce, eval.Budget{MaxCells: cfg.MaxCells}); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	in := &interp{
		ctx:  ctx,
		prog: p,
		cfg:  cfg,
		st:   st,
		mach: machine.New(p.Res.Mapping.Grid, cfg.Params),
		inj:  fault.NewInjector(cfg.Fault),
	}
	in.mach.Fault = in.inj
	if cfg.Trace != nil {
		rec := trace.New(nprocs, 1, *cfg.Trace)
		rec.SetLabels(p.StmtLabels())
		in.mach.Rec = rec
	}
	if cfg.Profile {
		in.profile = map[*ir.Stmt]*StmtProfile{}
	}
	err = eval.Walk(st, in)
	aborted := false
	if err != nil {
		var ge *eval.GotoEscapeError
		switch {
		case errors.As(err, &ge):
			return nil, fmt.Errorf("sim: goto %d escaped the program", ge.Label)
		case errors.Is(err, errAbort{}):
			aborted = true
		case errors.Is(err, ctx.Err()) && ctx.Err() != nil:
			return nil, err
		default:
			return nil, simError(err)
		}
	}
	res := &Result{
		Time:    in.mach.Time(),
		Stats:   in.mach.Stats,
		Aborted: aborted,
		Scalars: map[string]float64{},
		Arrays:  map[string][]float64{},
		Trace:   in.mach.Rec,
	}
	for v, x := range st.Scalars() {
		res.Scalars[v.Name] = x
	}
	for v, a := range st.Arrays() {
		res.Arrays[v.Name] = a
	}
	if in.profile != nil {
		for _, sp := range in.profile {
			res.Profile = append(res.Profile, *sp)
		}
		sort.Slice(res.Profile, func(i, j int) bool {
			if res.Profile[i].Seconds != res.Profile[j].Seconds {
				return res.Profile[i].Seconds > res.Profile[j].Seconds
			}
			return res.Profile[i].Stmt.ID < res.Profile[j].Stmt.ID
		})
	}
	return res, nil
}

// simError prefixes interpretation errors with the package name (the shared
// core reports bare messages so each backend can brand its own).
func simError(err error) error {
	return fmt.Errorf("sim: %w", err)
}

// interp drives the simulated machine from the shared walker: it implements
// eval.Backend, charging compute and communication costs at every event.
type interp struct {
	ctx  context.Context
	prog *spmd.Program
	cfg  Config
	st   *eval.State
	mach *machine.Machine

	// inj draws fault decisions (nil on fault-free runs); lastCkpt is the
	// simulated time of the last coordinated checkpoint (the implicit free
	// one at t=0 until a real one is taken).
	inj      *fault.Injector
	lastCkpt float64

	// profile accumulates per-statement attribution when enabled.
	profile map[*ir.Stmt]*StmtProfile
}

// clockSum is the total of all processor clocks (used to attribute time).
func (in *interp) clockSum() float64 {
	s := 0.0
	for _, c := range in.mach.Clock {
		s += c
	}
	return s
}

// attribute runs fn and charges the clock advance it causes to st.
func (in *interp) attribute(st *ir.Stmt, fn func() error) error {
	if in.profile == nil {
		return fn()
	}
	before := in.clockSum()
	err := fn()
	p := in.profile[st]
	if p == nil {
		p = &StmtProfile{Stmt: st}
		in.profile[st] = p
	}
	p.Instances++
	p.Seconds += in.clockSum() - before
	return err
}

func (in *interp) checkTime() error {
	if err := in.ctx.Err(); err != nil {
		return err
	}
	if in.inj != nil {
		// Fire any fail-stop crashes whose time has been reached. Recovery
		// advances the clocks, which may bring the next scheduled crash
		// due, so drain until quiescent (each crash fires exactly once).
		for {
			c := in.inj.PendingCrash(in.mach.Time())
			if c == nil {
				break
			}
			in.recoverCrash(c)
		}
	}
	if in.cfg.MaxSeconds > 0 && in.mach.Time() > in.cfg.MaxSeconds {
		return errAbort{}
	}
	return nil
}

// ---------------------------------------------------------------------------
// eval.Backend

// Tick fires after every loop iteration.
func (in *interp) Tick() error { return in.checkTime() }

// LoopEntry performs the vectorized communications hoisted to this loop
// (and, at hoisted-communication boundaries, coordinated checkpoints).
func (in *interp) LoopEntry(l *ir.Loop, lp *spmd.LoopPlan) error {
	// A hoisted-communication boundary is a natural coordination point:
	// no aggregated transfer is in flight, so a consistent checkpoint
	// needs no message draining.
	if len(lp.Hoisted) > 0 || l.Parent == nil {
		in.maybeCheckpoint()
	}
	for _, req := range lp.Hoisted {
		req := req
		// A privatized combine consumes its operands at the owners that
		// accumulate them: no aggregated transfer happens on either backend.
		if sp := in.prog.PlanOf(req.Stmt); sp != nil &&
			in.st.PrivatizedActive(sp.Combine) && sp.Combine.Mapping == nil {
			continue
		}
		if err := in.attribute(req.Stmt, func() error {
			op, err := in.st.VectorizedOp(req, int64(in.cfg.Params.ElemBytes))
			if err != nil {
				return err
			}
			in.mach.SetAttr(req.Stmt.ID, req.ID, req.Class)
			switch op.Kind {
			case eval.VecSkip:
				return nil
			case eval.VecShift:
				in.mach.Shift(op.Participants, op.PerProc)
			case eval.VecBcast:
				in.mach.Multicast(op.From, op.Dst, op.Bytes)
			case eval.VecExchange:
				in.mach.Exchange(op.Src, op.Dst, op.Bytes)
			}
			return in.checkTime()
		}); err != nil {
			return err
		}
	}
	in.mach.ClearAttr()
	return nil
}

// LoopExit runs the reduction combines attached to the loop — privatized
// combines merge their partial tables through the deterministic tree,
// collective ones charge the §2.3 global reduction — then the lastprivate
// copy-outs: the owner of the final iteration's value broadcasts it, after
// which the scalar is replicated again.
func (in *interp) LoopExit(l *ir.Loop, lp *spmd.LoopPlan) error {
	for _, c := range lp.Combines {
		if in.st.PrivatizedActive(c) {
			elems := in.st.PartialElems(c)
			if _, err := in.st.MergePartials(c); err != nil {
				return simError(err)
			}
			in.mach.SetAttr(c.Red.Stmt.ID, -1, dist.CommNone)
			in.mach.TreeMerge(dist.AllProcs(in.st.Grid()),
				elems*int64(in.cfg.Params.ElemBytes), in.prog.NProcs())
			continue
		}
		if c.Mapping == nil {
			// A collective elementwise reduction has no combine operation:
			// its reference execution is plain per-instance owner-computes.
			continue
		}
		set := in.st.ScalarSet(c.Mapping)
		stmt := -1
		if c.Mapping.Def != nil && c.Mapping.Def.Stmt != nil {
			stmt = c.Mapping.Def.Stmt.ID
		}
		in.mach.SetAttr(stmt, -1, dist.CommNone)
		in.mach.Reduce(set, int64(in.cfg.Params.ElemBytes))
	}
	for _, m := range lp.CopyOuts {
		// The walker leaves the loop index at its final executed value, so
		// the pattern's owners are the final iteration's owners.
		src := in.st.ScalarSet(m)
		all := dist.AllProcs(in.st.Grid())
		if src.Count() == all.Count() {
			continue // degenerate alignment: already everywhere
		}
		stmt := -1
		if m.Def != nil && m.Def.Stmt != nil {
			stmt = m.Def.Stmt.ID
		}
		in.mach.SetAttr(stmt, -1, dist.CommBcast)
		in.mach.Multicast(src.First(), all, int64(in.cfg.Params.ElemBytes))
	}
	in.mach.ClearAttr()
	return nil
}

// Statement performs per-instance communication and charges the computation
// of one statement instance.
func (in *interp) Statement(st *ir.Stmt, sp *spmd.StmtPlan) error {
	if in.profile != nil {
		return in.attribute(st, func() error { return in.statement(st, sp) })
	}
	// The non-profiling hot path calls the method directly: the closure
	// above escapes through attribute and would heap-allocate per instance.
	return in.statement(st, sp)
}

func (in *interp) statement(st *ir.Stmt, sp *spmd.StmtPlan) error {
	// A privatized elementwise reduction update accumulates into the partial
	// row of the data owner: its per-instance communication disappears (the
	// whole point — the collective reference ships every instance to the
	// element's owner), and the compute charge lands on the data owners.
	privArray := in.st.PrivatizedActive(sp.Combine) && sp.Combine.Mapping == nil
	if privArray {
		var execSet dist.ProcSet
		var err error
		if sp.Combine.Red.DataRef != nil {
			execSet, err = in.st.OwnerSet(sp.Combine.Red.DataRef)
		} else {
			execSet, err = in.st.ExecSet(sp)
		}
		if err != nil {
			return err
		}
		if sp.Flops > 0 {
			in.mach.SetAttr(st.ID, -1, dist.CommNone)
			in.mach.Compute(execSet, float64(sp.Flops)*in.cfg.Params.FlopTime)
		}
		in.mach.ClearAttr()
		return nil
	}
	for _, req := range sp.PerInstance {
		in.mach.SetAttr(st.ID, req.ID, req.Class)
		op, err := in.st.InstanceOp(req, sp, int64(in.cfg.Params.ElemBytes))
		if err != nil {
			return err
		}
		// Communication left inside a loop defeats loop-bound
		// shrinking: every processor must traverse the iteration space
		// evaluating the ownership guard, whether or not it
		// communicates.
		if in.cfg.Params.GuardTime > 0 {
			in.mach.Compute(dist.AllProcs(in.st.Grid()), in.cfg.Params.GuardTime)
		}
		if op.Skip {
			continue
		}
		if to, one := op.Dst.IsSingle(); one {
			in.mach.Send(op.From, to, op.Bytes)
		} else {
			in.mach.Multicast(op.From, op.Dst, op.Bytes)
		}
		if err := in.checkTime(); err != nil {
			return err
		}
	}
	execSet, err := in.st.ExecSet(sp)
	if err != nil {
		return err
	}
	if sp.Flops > 0 {
		in.mach.SetAttr(st.ID, -1, dist.CommNone)
		in.mach.Compute(execSet, float64(sp.Flops)*in.cfg.Params.FlopTime)
	}
	in.mach.ClearAttr()
	return nil
}

// Redistribute charges the all-to-all an executable redistribution performs
// (the mapping update has already been applied to the state).
func (in *interp) Redistribute(st *ir.Stmt) error {
	per := in.st.RedistBytesPerProc(st, int64(in.cfg.Params.ElemBytes))
	in.mach.SetAttr(st.ID, -1, dist.CommGeneral)
	in.mach.AllToAll(dist.AllProcs(in.st.Grid()), per)
	in.mach.ClearAttr()
	return in.checkTime()
}

// ---------------------------------------------------------------------------
// Checkpointing and crash recovery

// maybeCheckpoint takes a coordinated checkpoint at a hoisted-communication
// boundary when the configured interval has elapsed. Checkpoint state is
// each processor's partition of the distributed arrays plus its private
// scalar copies, written to stable storage at link speed.
func (in *interp) maybeCheckpoint() {
	if in.cfg.CheckpointInterval <= 0 {
		return
	}
	now := in.mach.Time()
	if now-in.lastCkpt < in.cfg.CheckpointInterval {
		return
	}
	in.mach.ClearAttr()
	in.mach.Checkpoint(eval.CheckpointBytes(in.st, int64(in.cfg.Params.ElemBytes)))
	in.lastCkpt = in.mach.Time()
}

// recoverCrash restores a fail-stop processor from the last coordinated
// checkpoint. Every processor rolls back and re-executes the lost interval;
// the restarted processor additionally refetches the state its mapping does
// not replicate: its partitions of distributed arrays and the live copies of
// aligned privatized scalars. Replicated copies — the paper's replication
// mapping — restore locally at zero communication cost, which is the
// robustness dividend of that mapping choice.
func (in *interp) recoverCrash(c *fault.Crash) {
	now := in.mach.Time()
	lost := now - in.lastCkpt
	if lost < 0 {
		lost = 0
	}
	bytes, msgs := eval.RefetchCost(in.st, c.Proc, int64(in.cfg.Params.ElemBytes))
	in.mach.Recover(c.Proc, lost, bytes, msgs)
	// Recovery reestablishes a consistent global state.
	in.lastCkpt = in.mach.Time()
}
