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
// decisions, the schedule of operations and its charges to the accountant —
// lives in internal/eval and is shared with internal/exec; this package gives
// the schedule one account on one machine, moves nothing (eval.Unbound), and
// adds the time limit, cancellation and the trace recorder.
package sim

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"phpf/internal/eval"
	"phpf/internal/machine"
	"phpf/internal/spmd"
	"phpf/internal/trace"
)

// Config is the one run configuration (see eval.RunOptions): the simulator
// takes every field but the concurrent backend's worker knobs.
type Config = eval.RunOptions

// Result is the one run outcome (see eval.Report).
type Result = eval.Report

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
	acct := eval.NewAccount(st, cfg)
	in := &interp{acct: acct, ctx: ctx, ended: ended, maxSeconds: cfg.MaxSeconds}
	mach := acct.M
	if cfg.Trace != nil {
		mach.Rec = trace.New(nprocs, 1, *cfg.Trace)
		mach.Rec.SetLabels(p.StmtLabels())
	}
	aborted := false
	if err := eval.Run(st, in, eval.Meter{Account: acct}, cfg.Params.ElemBytes, nil); err != nil {
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
	res := &Result{Backend: eval.BackendSim, Time: mach.Time(), Stats: mach.Stats, Aborted: aborted,
		HotStatements: acct.HotStatements(), Trace: mach.Rec}
	res.Scalars, res.Arrays = st.Export()
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

// interp is the simulator's side of the shared schedule (eval.Ops), which
// charges the one account: its one State holds every processor's values, so
// it moves nothing, and its sites are where a run ends — crashes, the time
// limit and cancellation.
type interp struct {
	eval.Unbound
	acct       *eval.Account
	ctx        context.Context
	ended      *atomic.Bool // eval.Ended(ctx): what the sites poll
	maxSeconds float64
}

// CrashSite fires the crashes that have come due, then applies the limits.
func (in *interp) CrashSite() error {
	if in.ended != nil && in.ended.Load() {
		return in.ctx.Err()
	}
	if in.acct.M.Fault != nil { // no plan, no crash to come due: the test is all a site pays
		in.acct.RecoverCrashes()
	}
	if in.maxSeconds > 0 && in.acct.M.Time() > in.maxSeconds {
		return errAbort{}
	}
	return nil
}

func (in *interp) Tick() error { return in.CrashSite() }
