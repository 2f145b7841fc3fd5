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
	"sort"
	"sync/atomic"

	"phpf/internal/comm"
	"phpf/internal/dist"
	"phpf/internal/eval"
	"phpf/internal/ir"
	"phpf/internal/machine"
	"phpf/internal/spmd"
	"phpf/internal/trace"
)

// Config is the one run configuration (see eval.RunOptions): the simulator
// takes every field but the concurrent backend's worker knobs.
type Config = eval.RunOptions

// Result is the one run outcome (see eval.Report).
type Result = eval.Report

// StmtProfile is one statement's share of the simulated activity.
type StmtProfile = eval.StmtProfile

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
		return nil, eval.ConfigErrorf(eval.BackendSim, "nil program")
	}
	nprocs := p.NProcs()
	if err := cfg.Validate(nprocs, eval.BackendSim); err != nil {
		return nil, err
	}
	if cfg.Params == (machine.Params{}) {
		cfg.Params = machine.SP2()
	}
	st, err := cfg.NewState(p)
	if err != nil {
		return nil, simError(err)
	}
	ended, unhook := eval.Ended(ctx)
	defer unhook()
	in := &interp{Account: eval.NewAccount(st, cfg), ctx: ctx, ended: ended, maxSeconds: cfg.MaxSeconds}
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
	res := &Result{Backend: eval.BackendSim, Time: mach.Time(), Stats: mach.Stats, Aborted: aborted, Trace: mach.Rec}
	res.Scalars, res.Arrays = st.Export()
	for _, sp := range profile {
		res.HotStatements = append(res.HotStatements, *sp)
	}
	hot := res.HotStatements
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].Seconds != hot[j].Seconds {
			return hot[i].Seconds > hot[j].Seconds
		}
		return hot[i].Stmt.ID < hot[j].Stmt.ID
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
	ended      *atomic.Bool // eval.Ended(ctx): what the sites poll
	maxSeconds float64
}

// CrashSite fires the crashes that have come due, then applies the limits.
func (in *interp) CrashSite() error {
	if in.ended != nil && in.ended.Load() {
		return in.ctx.Err()
	}
	if in.M.Fault != nil { // no plan, no crash to come due: the test is all a site pays
		in.RecoverCrashes()
	}
	if in.maxSeconds > 0 && in.M.Time() > in.maxSeconds {
		return errAbort{}
	}
	return nil
}

func (in *interp) Tick() error { return in.CrashSite() }

// Iteration closes a strip of quiet iterations. With a fault plan or a time
// limit an iteration's end can stop something, and each is closed on its own;
// otherwise the strip's charges are one call (which a recorder still sees
// charge by charge) and its end the one cancellation poll.
func (in *interp) Iteration(charges []eval.Charge, n int64) (int64, error) {
	if in.M.Fault != nil || in.maxSeconds > 0 {
		return eval.EachIteration(n, func() error {
			in.Charges(charges, 1)
			return in.Tick()
		})
	}
	in.Charges(charges, n)
	return n, in.Tick()
}

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

// Iteration closes the strip one iteration at a time, each charge made and
// bracketed by the profiler's own Guard, Transfer and Compute (the interp's
// Iteration, promoted, would charge them unseen).
func (p *profiler) Iteration(charges []eval.Charge, n int64) (int64, error) {
	return eval.EachIteration(n, func() error {
		for i := range charges {
			charges[i].Issue(p, p.M.Params.ElemBytes)
		}
		return p.Tick()
	})
}
