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
// The interpretation core — value semantics, execution sets, communication
// decisions, the schedule of operations and the accountant that charges them
// — lives in internal/eval and is shared with internal/exec; this package
// runs it against one machine and adds the time limit, the per-statement
// profile and the trace recorder.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"phpf/internal/comm"
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

// run is the part of the configuration shared with the concurrent backend.
func (c Config) run() eval.RunSpec {
	return eval.RunSpec{Params: c.Params, Fault: c.Fault,
		CheckpointInterval: c.CheckpointInterval, MaxCells: c.MaxCells, Reduce: c.Reduce}
}

// Validate rejects configurations that cannot describe a run: a negative or
// non-finite time limit (the paper's aborted entries need a positive bound;
// zero means unlimited) and whatever eval.RunSpec.Validate rejects (Run
// has the processor count for that, Validate has not).
func (c Config) Validate() error { return c.validate(0) }

func (c Config) validate(nprocs int) error {
	if math.IsNaN(c.MaxSeconds) || math.IsInf(c.MaxSeconds, 0) {
		return fmt.Errorf("sim: MaxSeconds must be finite, got %v", c.MaxSeconds)
	}
	if c.MaxSeconds < 0 {
		return fmt.Errorf("sim: MaxSeconds must be >= 0 (0 = unlimited), got %v", c.MaxSeconds)
	}
	return simError(c.run().Validate(nprocs))
}

// StmtProfile is one statement's share of the simulated activity.
type StmtProfile struct {
	Stmt *ir.Stmt
	// Instances is how many times the statement executed.
	Instances int64
	// Seconds is the total clock advance attributed to the statement
	// (summed over processors), hoisted communication on its behalf included.
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
	nprocs := p.NProcs()
	if err := cfg.validate(nprocs); err != nil {
		return nil, err
	}
	st, err := cfg.run().NewState(p)
	if err != nil {
		return nil, simError(err)
	}
	in := &interp{Account: eval.NewAccount(st, cfg.run()), ctx: ctx, maxSeconds: cfg.MaxSeconds}
	mach := in.M
	if cfg.Trace != nil {
		mach.Rec = trace.New(nprocs, 1, *cfg.Trace)
		mach.Rec.SetLabels(p.StmtLabels())
	}
	var ops eval.Ops = in
	var profile map[*ir.Stmt]*StmtProfile
	if cfg.Profile {
		profile = map[*ir.Stmt]*StmtProfile{}
		ops = &profiler{interp: in, by: profile}
	}
	aborted := false
	if err := eval.Run(st, ops, cfg.Params.ElemBytes, nil); err != nil {
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
	res := &Result{Time: mach.Time(), Stats: mach.Stats, Aborted: aborted, Trace: mach.Rec}
	res.Scalars, res.Arrays = st.Export()
	for _, sp := range profile {
		res.Profile = append(res.Profile, *sp)
	}
	sort.Slice(res.Profile, func(i, j int) bool {
		if res.Profile[i].Seconds != res.Profile[j].Seconds {
			return res.Profile[i].Seconds > res.Profile[j].Seconds
		}
		return res.Profile[i].Stmt.ID < res.Profile[j].Stmt.ID
	})
	return res, nil
}

// simError prefixes interpretation errors with the package name (the shared
// core reports bare messages so each backend can brand its own).
func simError(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("sim: %w", err)
}

// interp is the simulator's side of the shared schedule (eval.Ops): every
// operation is its charge to the simulated machine — the embedded account —
// and the sites where a run can end are its time-limit and cancellation
// checks.
type interp struct {
	*eval.Account
	ctx        context.Context
	maxSeconds float64
}

// CrashSite fires the crashes that have come due, then applies the limits.
func (in *interp) CrashSite() error {
	if err := in.ctx.Err(); err != nil {
		return err
	}
	in.RecoverCrashes()
	if in.maxSeconds > 0 && in.M.Time() > in.maxSeconds {
		return errAbort{}
	}
	return nil
}

func (in *interp) Tick() error { return in.CrashSite() }

// profiler is the interp of a profiled run: the operations that name a
// statement are bracketed, and the clock advance of each goes to it.
type profiler struct {
	*interp
	by map[*ir.Stmt]*StmtProfile
}

// clockSum is the total of all processor clocks.
func (p *profiler) clockSum() float64 {
	s := 0.0
	for _, c := range p.M.Clock {
		s += c
	}
	return s
}

// since charges st the clock advance since the sum was before.
func (p *profiler) since(st *ir.Stmt, before float64) *StmtProfile {
	sp := p.by[st]
	if sp == nil {
		sp = &StmtProfile{Stmt: st}
		p.by[st] = sp
	}
	sp.Seconds += p.clockSum() - before
	return sp
}

func (p *profiler) Vectorized(req *comm.Requirement, op eval.VectorizedOp) error {
	defer p.since(req.Stmt, p.clockSum())
	return p.interp.Vectorized(req, op)
}

func (p *profiler) Guard(req *comm.Requirement) {
	defer p.since(req.Stmt, p.clockSum())
	p.interp.Guard(req)
}

func (p *profiler) Transfer(req *comm.Requirement, op eval.InstanceOp) error {
	defer p.since(req.Stmt, p.clockSum())
	return p.interp.Transfer(req, op)
}

// Compute closes every statement instance, so this is where they are counted.
func (p *profiler) Compute(st *ir.Stmt, set dist.ProcSet, flops int) {
	before := p.clockSum()
	p.interp.Compute(st, set, flops)
	p.since(st, before).Instances++
}
