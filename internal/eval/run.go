// The run configuration and the run outcome, defined once. The public API
// (phpf.RunOptions, phpf.Report), the simulator (sim.Config, sim.Result) and
// the concurrent executor (exec.Config, exec.Result) all alias these two
// types, so a run's settings are stated in one place, checked by one
// Validate, and never copied field by field between layers.
package eval

import (
	"context"
	"math"
	"sync/atomic"
	"time"

	"phpf/internal/core"
	"phpf/internal/diag"
	"phpf/internal/dist"
	"phpf/internal/fault"
	"phpf/internal/ir"
	"phpf/internal/machine"
	"phpf/internal/spmd"
	"phpf/internal/trace"
)

// The backends a configuration can be validated against (and the values of
// Report.Backend). BackendDiff is the differential oracle, which hands one
// configuration to both.
const (
	BackendSim        = "sim"
	BackendConcurrent = "concurrent"
	BackendDiff       = "diff"
)

// RunOptions configures one execution on either backend. Fields a backend
// does not support are rejected by Validate with a coded E005 diagnostic,
// not silently ignored.
type RunOptions struct {
	// Params are the machine cost parameters (machine.SP2() when zero); both
	// backends use them — the simulator to advance its clocks, the
	// concurrent executor for its deterministic statistics replay.
	Params machine.Params

	// MaxSeconds aborts once simulated time exceeds it (0 = unlimited) —
	// the paper's "> 1 day (aborted)" entries. Simulator only: the
	// concurrent backend bounds wall time via the context deadline instead.
	MaxSeconds float64
	// Fault, when non-nil and active, injects deterministic faults
	// (message loss/duplication, slowdowns, crashes). Both backends charge
	// the same seeded plan to the same cost model. On the concurrent
	// executor only crashes are physical: the workers roll back to a
	// coordinated checkpoint and refetch for real. A nil or inactive plan
	// leaves the fault-free arithmetic bit-identical.
	Fault *fault.Plan
	// CheckpointInterval takes a coordinated checkpoint at the schedule's
	// checkpoint sites whenever at least this much simulated time has
	// passed since the last one (0 = only the implicit free checkpoint at
	// t=0). Both backends checkpoint at the same sites; the concurrent
	// executor takes real barrier-aligned snapshots it can restart from
	// after a crash. Crash recovery rolls back to the last checkpoint and
	// re-executes the lost interval; the restarted processor refetches
	// aligned and partitioned state, while replicated state restores
	// locally.
	CheckpointInterval float64

	// Reduce selects the runtime reduction strategy, identically on both
	// backends: ReduceAuto (the default) privatizes every reduction the
	// reduceplan analysis cleared, ReduceCollective forces the §2.3
	// combining collective everywhere, and ReducePrivatize additionally
	// fails with a coded E005 diagnostic if any recognized reduction is
	// collective-only. Runs under different strategies reassociate floating
	// point differently; integer-valued reductions agree across strategies.
	Reduce core.ReduceMode

	// StallTimeout is how long the concurrent backend's watchdog waits
	// without any worker progress before declaring a stall, which ends the
	// run (0 = default, negative = disabled). Concurrent only.
	StallTimeout time.Duration

	// Trace, when non-nil, records runtime events into Report.Trace: the
	// simulator the cost model's, in simulated time; the concurrent executor
	// only its workers' planned sends and receives and their waits, in wall
	// time (one shard per worker, so tracing adds no locking). A traced run also
	// attributes its simulated time to statements (Report.HotStatements),
	// identically on both backends. Nil keeps the event path of both
	// backends emission- and allocation-free.
	Trace *trace.Options

	// MaxCells caps the total array cells of one memory image (0 =
	// unlimited). Both backends enforce it before allocating: the run fails
	// with a coded E006 (budget) diagnostic instead of letting one huge
	// declaration exhaust process memory. The concurrent backend holds one
	// full-size image per worker, so its worst-case footprint is MaxCells × 8
	// bytes × workers. CLIs default to unlimited; serving
	// paths should always set it.
	MaxCells int64
}

// Validate rejects, with a coded E005 diagnostic, a configuration that
// cannot describe a run of a program planned for nprocs processors on the
// named backend: non-finite or negative bounds, intervals and budgets,
// invalid machine parameters (a zero Params stands for the default and is
// accepted), a malformed fault plan or one naming a processor the program
// does not have, and every setting the backend does not implement. nprocs
// <= 0 means the processor count is not known yet and leaves processor
// numbers unchecked; a backend other than BackendSim and BackendConcurrent
// (BackendDiff among them) gets the backend-independent checks only. It is the
// only validation of a run configuration: Compiled.Execute, Compiled.Diff, the
// serving layer and the backends' own entry points all call it.
func (o RunOptions) Validate(nprocs int, backend string) error {
	bad := func(format string, args ...any) error { return ConfigErrorf(backend, format, args...) }
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"MaxSeconds", o.MaxSeconds},
		{"CheckpointInterval", o.CheckpointInterval},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return bad("%s must be finite, got %v", f.name, f.v)
		}
		if f.v < 0 {
			return bad("%s must be >= 0, got %v", f.name, f.v)
		}
	}
	if o.Params != (machine.Params{}) {
		if err := o.Params.Validate(); err != nil {
			return bad("%v", err)
		}
	}
	if err := o.Fault.Validate(); err != nil {
		return bad("%v", err)
	}
	if o.Fault.Active() && nprocs > 0 {
		for _, cr := range o.Fault.Crashes {
			if cr.Proc >= nprocs {
				return bad("crash names processor %d; the program runs on %d", cr.Proc, nprocs)
			}
		}
		for _, sl := range o.Fault.Slowdowns {
			if sl.Proc >= nprocs {
				return bad("slowdown names processor %d; the program runs on %d", sl.Proc, nprocs)
			}
		}
	}
	if o.MaxCells < 0 {
		return bad("MaxCells must be >= 0 (0 = unlimited), got %d", o.MaxCells)
	}
	if o.Reduce < core.ReduceAuto || o.Reduce > core.ReducePrivatize {
		return bad("Reduce must be ReduceAuto, ReduceCollective, or ReducePrivatize, got %d", int(o.Reduce))
	}
	switch backend {
	case BackendSim:
		if o.StallTimeout != 0 {
			return bad("StallTimeout configures the concurrent backend's watchdog; the simulator has none")
		}
	case BackendConcurrent:
		if o.MaxSeconds > 0 {
			return bad("MaxSeconds bounds simulated time; bound the concurrent backend with a context deadline")
		}
	}
	return nil
}

// ConfigErrorf builds the coded E005 diagnostic for a configuration the
// named backend (or, when "", the option resolver) cannot run.
func ConfigErrorf(backend, format string, args ...any) error {
	if backend == "" {
		backend = "options"
	}
	return diag.Errorf(backend, diag.CodeConfig, diag.Pos{}, format, args...)
}

// NewState allocates one memory image of the run under its cell budget, with
// the reduction mode armed and the account keepers known.
func (o RunOptions) NewState(p *spmd.Program) (*State, error) {
	budget := Budget{MaxCells: o.MaxCells}
	st, err := NewStateBudget(p, budget)
	if err == nil {
		err = st.ConfigureReduce(o.Reduce, budget)
	}
	if err != nil {
		return nil, err
	}
	st.keepers = o.Keepers(st.grid)
	return st, nil
}

// Keepers returns the processors that keep an account of a run on grid g:
// every one under an active fault plan or a checkpoint interval, whose
// accounts cross-check each other, and otherwise processor 0, the accountant.
func (o RunOptions) Keepers(g *dist.Grid) dist.ProcSet {
	if o.Fault.Active() || o.CheckpointInterval > 0 {
		return dist.AllProcs(g)
	}
	return dist.Single(g, 0)
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

// Report is the backend-independent outcome of one execution.
type Report struct {
	// Backend names the backend that produced the report (BackendSim or
	// BackendConcurrent).
	Backend string
	// Time is the simulated execution time and Stats the modeled
	// communication activity: the accountant's charges to the cost model,
	// identical on both backends for the same program and fault plan.
	Time  float64
	Stats machine.Stats
	// Aborted reports a MaxSeconds cutoff (simulator only).
	Aborted bool

	// Final memory, for validation against reference implementations (the
	// concurrent backend gathers it from the workers that hold each value).
	Scalars map[string]float64
	Arrays  map[string][]float64

	// HotStatements is the per-statement time attribution, sorted hottest
	// first: the accountant's (Account.HotStatements), on either backend,
	// when RunOptions.Trace was set; nil otherwise.
	HotStatements []StmtProfile

	// Workers is the number of worker goroutines that ran (concurrent
	// backend; 0 from the simulator).
	Workers int
	// TrafficMessages counts real channel messages exchanged — the physical
	// rendezvous, not the cost model's modeled message count (concurrent
	// backend; 0 from the simulator).
	TrafficMessages int64
	// Restarts counts the concurrent backend's coordinated checkpoint
	// restores (fail-stop crashes recovered in-band by rolling every worker
	// back to the last snapshot; 0 from the simulator, whose recovery is
	// purely modeled).
	Restarts int64

	// Trace is the recorded event stream when RunOptions.Trace was set (nil
	// otherwise). The simulator emits into a single shard, so its
	// Trace.Events() is the exact deterministic program-order stream; the
	// concurrent backend's per-class counts of planned communication match
	// it exactly, which the differential oracle verifies.
	Trace *trace.Recorder
}

// Ended returns a flag that is set once ctx has ended, for a backend's Tick to
// poll, and the call that unhooks it (to be deferred); the flag is nil when
// ctx cannot end. Tick runs after every loop iteration on every worker, so
// the poll may cost an atomic load and no more: ctx.Err() on a cancel context
// locks a mutex, and a non-blocking receive from ctx.Done() measured no
// cheaper (EXPERIMENTS.md, owner runs).
func Ended(ctx context.Context) (ended *atomic.Bool, unhook func() bool) {
	if ctx.Done() == nil {
		return nil, func() bool { return false }
	}
	flag := new(atomic.Bool)
	return flag, context.AfterFunc(ctx, func() { flag.Store(true) })
}
