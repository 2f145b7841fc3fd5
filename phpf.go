// Package phpf reproduces the compiler framework of Gupta, "On
// Privatization of Variables for Data-Parallel Execution" (IPPS 1997): an
// HPF-like mini-language, the privatization and mapping analyses of the phpf
// prototype compiler (scalar alignment selection, reduction mapping, full
// and partial array privatization, control-flow privatization), SPMD code
// generation under the owner-computes rule with message vectorization, and
// two execution backends behind one Backend interface — a deterministic IBM
// SP2-style machine simulator and a concurrent goroutine-per-processor
// executor — with a shared runtime observability layer (event tracing and
// communication metrics, see internal/trace).
//
// Typical use:
//
//	c, err := phpf.Compile(source, 16, phpf.SelectedOptions())
//	rep, err := c.Execute(ctx, phpf.Simulator(), phpf.RunOptions{})
//	fmt.Println(rep.Time, rep.Stats)
package phpf

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"phpf/internal/core"
	"phpf/internal/diag"
	"phpf/internal/dist"
	"phpf/internal/exec"
	"phpf/internal/fault"
	"phpf/internal/ir"
	"phpf/internal/machine"
	"phpf/internal/parser"
	"phpf/internal/pass"
	"phpf/internal/programs"
	"phpf/internal/sim"
	"phpf/internal/spmd"
	"phpf/internal/trace"
)

// Re-exported option types: one import suffices for the whole API.
type (
	// Options selects which of the paper's optimizations the compiler
	// applies (see core.Options).
	Options = core.Options
	// ScalarStrategy is the scalar-mapping level of Table 1.
	ScalarStrategy = core.ScalarStrategy
	// MachineParams are the simulated machine's cost parameters.
	MachineParams = machine.Params
	// Stats aggregates simulated communication activity.
	Stats = machine.Stats
	// Diagnostic is a positioned, coded compiler diagnostic (see
	// internal/diag.Diagnostic); every stage reports problems this way.
	Diagnostic = core.Diagnostic
	// Severity grades a Diagnostic (info, warning, error).
	Severity = diag.Severity
	// CompileProfile is the per-pass instrumentation of a compilation (see
	// pass.CompileProfile); phpfc -trace prints it.
	CompileProfile = pass.CompileProfile
	// PassStat is one pass execution in a CompileProfile.
	PassStat = pass.PassStat
	// FaultPlan is a deterministic fault-injection schedule (see
	// fault.Plan).
	FaultPlan = fault.Plan
	// Crash is a fail-stop processor crash at a simulated time.
	Crash = fault.Crash
	// Slowdown is a transient per-processor compute slowdown.
	Slowdown = fault.Slowdown
	// TraceOptions configures runtime event tracing (see trace.Options):
	// ring capacity and 1-in-N sampling. The derived counters stay exact
	// regardless.
	TraceOptions = trace.Options
	// TraceRecorder is the recorded event stream of one run plus its exact
	// derived metrics (per-class totals, the P×P communication matrix,
	// per-statement histograms, Chrome trace_event export).
	TraceRecorder = trace.Recorder
	// TraceEvent is one recorded runtime event.
	TraceEvent = trace.Event
	// TraceCommMatrix is the P×P planned-communication matrix snapshot.
	TraceCommMatrix = trace.CommMatrix
	// StmtProfile is one statement's share of simulated activity (the
	// hot-statement view, see Report.HotStatements).
	StmtProfile = sim.StmtProfile
)

// Diagnostic severities.
const (
	SeverityInfo    = diag.Info
	SeverityWarning = diag.Warning
	SeverityError   = diag.Error
)

// ParseCrashes parses a CLI crash list "proc@time,proc@time".
func ParseCrashes(s string) ([]Crash, error) { return fault.ParseCrashes(s) }

// ParseSlowdowns parses a CLI slowdown list
// "proc:factor[:start[:duration]],...".
func ParseSlowdowns(s string) ([]Slowdown, error) { return fault.ParseSlowdowns(s) }

// Scalar strategies (Table 1 columns).
const (
	ScalarsReplicated      = core.ScalarsReplicated
	ScalarsProducerAligned = core.ScalarsProducerAligned
	ScalarsSelected        = core.ScalarsSelected
)

// PrivMode selects where privatization facts come from (see core.PrivMode):
// directives only, inference alongside directives (the default), or
// inference alone with directives ignored.
type PrivMode = core.PrivMode

// Privatization modes.
const (
	PrivDirectives  = core.PrivDirectives
	PrivInfer       = core.PrivInfer
	PrivInferStrict = core.PrivInferStrict
)

// ParsePrivMode parses a CLI/API privatization-mode name: "directives",
// "infer", or "infer-strict".
func ParsePrivMode(s string) (PrivMode, bool) { return core.ParsePrivMode(s) }

// ReduceMode selects the runtime reduction strategy (see core.ReduceMode):
// the §2.3 collective combine, per-processor privatized partials merged in a
// deterministic tree at loop exit, or the automatic choice driven by the
// reduceplan analysis.
type ReduceMode = core.ReduceMode

// Reduction strategies.
const (
	// ReduceAuto privatizes every reduction the reduceplan analysis cleared
	// and leaves the rest collective (the default).
	ReduceAuto = core.ReduceAuto
	// ReduceCollective runs every reduction through the log-P combining
	// collective — the differential reference strategy.
	ReduceCollective = core.ReduceCollective
	// ReducePrivatize demands privatization: any recognized reduction the
	// analysis could not clear fails the run with a coded E005 diagnostic.
	ReducePrivatize = core.ReducePrivatize
)

// ParseReduceMode parses a CLI/API reduce-mode name: "auto", "collective",
// or "privatize".
func ParseReduceMode(s string) (ReduceMode, bool) { return core.ParseReduceMode(s) }

// SelectedOptions is the full compiler of §2.2–§4 (Table 1 "Selected
// Alignment", Table 2 "Alignment", Table 3 privatization columns).
func SelectedOptions() Options { return core.DefaultOptions() }

// ProducerOptions is the Table 1 middle column: privatization with
// producer-only alignment.
func ProducerOptions() Options {
	o := core.DefaultOptions()
	o.Scalars = ScalarsProducerAligned
	return o
}

// NaiveOptions is the Table 1 first column: no privatization — every scalar
// replicated, reduction variables included.
func NaiveOptions() Options {
	o := core.DefaultOptions()
	o.Scalars = ScalarsReplicated
	o.AlignReductions = false
	return o
}

// SP2Params returns the default machine parameters (IBM SP2 thin nodes).
func SP2Params() MachineParams { return machine.SP2() }

// Compiled is a fully analyzed program ready to simulate.
type Compiled struct {
	Source string
	NProcs int
	Opts   Options

	Result *core.Result
	SPMD   *spmd.Program
}

// CacheKey returns a stable content hash identifying a compilation input
// plus the reduction strategy it will run under: two calls with the same
// source text, processor count, option set, and reduce mode return the same
// key, and any difference in them changes it. Serving layers key
// compiled-program caches on it (compile once, serve many); because the key
// covers the full input, a hit can reuse the Compiled without revalidation.
// The reduce mode is part of the key even though one Compiled can execute
// under any strategy: serving paths attach per-entry execution defaults to
// cache entries, so entries for different strategies must not collide.
func CacheKey(source string, nprocs int, opts Options, reduce ReduceMode) string {
	h := sha256.New()
	// The version tag invalidates every cached key when the encoding (or
	// the meaning of an option) changes incompatibly.
	fmt.Fprintf(h, "phpf-cache-v4\x00procs=%d\x00opts=%+v\x00reduce=%s\x00", nprocs, opts, reduce)
	h.Write([]byte(source))
	return hex.EncodeToString(h.Sum(nil))
}

// Compile parses, analyzes and lowers a mini-HPF program for nprocs
// processors.
func Compile(source string, nprocs int, opts Options) (*Compiled, error) {
	ap, err := parser.Parse(source)
	if err != nil {
		return nil, fmt.Errorf("phpf: %w", err)
	}
	res, err := core.BuildAndAnalyze(ap, nprocs, opts)
	if err != nil {
		return nil, fmt.Errorf("phpf: %w", err)
	}
	start := time.Now()
	sp := spmd.Generate(res)
	// SPMD generation runs outside the pass manager; time it the same way so
	// -trace accounts for the whole compilation.
	res.Profile.Stats = append(res.Profile.Stats, pass.PassStat{
		Name:  "spmd",
		Wall:  time.Since(start),
		Diags: len(sp.Diags),
	})
	return &Compiled{
		Source: source,
		NProcs: nprocs,
		Opts:   opts,
		Result: res,
		SPMD:   sp,
	}, nil
}

// ---------------------------------------------------------------------------
// The unified execution API: RunOptions → Backend → Report

// RunOptions configures one execution on either backend — the merger of the
// former RunConfig (simulator) and ExecConfig (concurrent executor). Fields
// a backend does not support are rejected with a coded E005 diagnostic, not
// silently ignored.
type RunOptions struct {
	// Params are the machine cost parameters (SP2Params() when zero); both
	// backends use them — the simulator to advance its clocks, the
	// concurrent executor for its deterministic statistics replay.
	Params MachineParams

	// MaxSeconds aborts once simulated time exceeds it (0 = unlimited) —
	// the paper's "> 1 day (aborted)" entries. Simulator only: the
	// concurrent backend bounds wall time via the context deadline instead.
	MaxSeconds float64
	// Profile collects the per-statement hot-statement view
	// (Report.HotStatements). Simulator only.
	Profile bool
	// Fault, when non-nil and active, injects deterministic faults
	// (message loss/duplication, slowdowns, crashes). Both backends take
	// the same seeded plan: the simulator charges modeled costs, the
	// concurrent executor additionally makes message faults physical —
	// real dropped/duplicated/delayed transmissions healed by seeded
	// retransmission — while replaying the identical modeled accounting.
	Fault *FaultPlan
	// CheckpointInterval enables coordinated checkpointing every so many
	// simulated seconds (0 = off). Both backends checkpoint at the same
	// hoisted-communication boundaries; the concurrent executor takes real
	// barrier-aligned snapshots it can restart from after a crash.
	CheckpointInterval float64

	// Reduce selects the runtime reduction strategy, identically on both
	// backends: ReduceAuto (the default) privatizes every reduction the
	// reduceplan analysis cleared, ReduceCollective forces the §2.3
	// combining collective everywhere, and ReducePrivatize additionally
	// fails with a coded E005 diagnostic if any recognized reduction is
	// collective-only. Runs under different strategies reassociate floating
	// point differently; integer-valued reductions agree across strategies.
	Reduce ReduceMode

	// Workers is the concurrent backend's worker count (0 = the program's
	// processor count; any other value but the processor count itself is
	// rejected). Concurrent only.
	Workers int
	// MailboxDepth bounds each directed mailbox (0 = default). Concurrent
	// only.
	MailboxDepth int
	// StallTimeout is the concurrent backend's watchdog quiet period
	// (0 = default, negative = disabled). Concurrent only.
	StallTimeout time.Duration
	// MaxRestarts bounds the concurrent backend's run-level heals after a
	// worker death or stall (0 = default, negative = disabled). Concurrent
	// only.
	MaxRestarts int
	// HardCrashes makes scheduled fail-stop crashes kill worker goroutines
	// for real (recovery then goes through the run-level heal) instead of
	// the default coordinated restore. Concurrent only.
	HardCrashes bool

	// Trace, when non-nil, records runtime events into Report.Trace: the
	// simulator stamps simulated time, the concurrent executor wall time.
	// Nil keeps the event path of both backends emission- and
	// allocation-free.
	Trace *TraceOptions

	// MaxCells caps the total array cells of one memory image (0 =
	// unlimited). Both backends enforce it before allocating: the run fails
	// with a coded E006 (budget) diagnostic instead of letting one huge
	// declaration exhaust process memory. The concurrent backend holds one
	// full replicated image per worker, so its worst-case footprint is
	// MaxCells × 8 bytes × workers. CLIs default to unlimited; serving
	// paths should always set it.
	MaxCells int64
}

// Validate sanity-checks the options against zero/negative/absurd values
// without knowing the target backend: non-finite or negative time bounds and
// intervals, invalid machine parameters (a zero Params means SP2Params() and
// is accepted), malformed fault plans, and negative resource budgets all
// return a coded E005 diagnostic. Backends re-validate what they consume;
// this is the early, backend-independent gate serving paths run before
// admitting a request.
func (o RunOptions) Validate() error {
	bad := func(format string, args ...any) error { return configErr("options", format, args...) }
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
	if o.Params != (MachineParams{}) {
		if err := o.Params.Validate(); err != nil {
			return bad("%v", err)
		}
	}
	if err := o.Fault.Validate(); err != nil {
		return bad("%v", err)
	}
	if o.Workers < 0 {
		return bad("Workers must be >= 0 (0 = one per processor), got %d", o.Workers)
	}
	if o.MailboxDepth < 0 {
		return bad("MailboxDepth must be >= 0 (0 = default), got %d", o.MailboxDepth)
	}
	if o.MaxCells < 0 {
		return bad("MaxCells must be >= 0 (0 = unlimited), got %d", o.MaxCells)
	}
	if o.Reduce < ReduceAuto || o.Reduce > ReducePrivatize {
		return bad("Reduce must be ReduceAuto, ReduceCollective, or ReducePrivatize, got %d", int(o.Reduce))
	}
	return nil
}

// Report is the backend-independent outcome of one execution.
type Report struct {
	// Backend names the backend that produced the report ("sim" or
	// "concurrent").
	Backend string
	// Time is the simulated execution time (the concurrent backend reports
	// its deterministic cost-model replay, identical to the simulator's).
	Time float64
	// Stats aggregates the modeled communication activity.
	Stats Stats
	// Aborted reports a MaxSeconds cutoff (simulator only).
	Aborted bool

	// Final memory, for validation against reference implementations.
	Scalars map[string]float64
	Arrays  map[string][]float64

	// HotStatements is the per-statement time attribution, sorted hottest
	// first (simulator with Profile on; nil otherwise).
	HotStatements []StmtProfile

	// Workers is the number of worker goroutines that ran (concurrent
	// backend; 0 from the simulator).
	Workers int
	// TrafficMessages counts real channel messages exchanged (concurrent
	// backend; 0 from the simulator).
	TrafficMessages int64
	// Restarts counts the concurrent backend's coordinated checkpoint
	// restores; HardRestarts its run-level heals (both 0 from the
	// simulator, whose recovery is purely modeled).
	Restarts     int64
	HardRestarts int
	// Wire-layer fault activity of the concurrent backend: real
	// transmissions dropped, retransmitted after timeout, duplicated, and
	// duplicate-suppressed at the receiver (all 0 from the simulator).
	WireDrops         int64
	WireRetransmits   int64
	WireDuplicates    int64
	WireDupSuppressed int64

	// Trace is the recorded event stream when RunOptions.Trace was set
	// (nil otherwise).
	Trace *TraceRecorder
}

// Backend is one way of executing a compiled SPMD program. Both built-in
// backends — Simulator() and Concurrent() — implement it, so tools and tests
// can be written once against the interface; a trace recorder plugs into any
// backend the same way (RunOptions.Trace).
type Backend interface {
	// Name identifies the backend ("sim", "concurrent").
	Name() string
	// Run executes the program. Cancellation or deadline on ctx aborts the
	// run: the simulator checks between events (iteration and communication
	// boundaries), the concurrent executor unwinds every worker.
	Run(ctx context.Context, p *spmd.Program, opts RunOptions) (*Report, error)
}

// Simulator returns the sequential simulated-machine backend.
func Simulator() Backend { return simulatorBackend{} }

// Concurrent returns the concurrent goroutine-per-processor backend.
func Concurrent() Backend { return concurrentBackend{} }

// Backends lists the built-in backend names, in presentation order.
func Backends() []string { return []string{"sim", "concurrent"} }

// BackendByName resolves a backend name ("sim", "concurrent").
func BackendByName(name string) (Backend, bool) {
	switch name {
	case "sim":
		return Simulator(), true
	case "concurrent":
		return Concurrent(), true
	}
	return nil, false
}

// Execute runs the compiled program on the given backend.
func (c *Compiled) Execute(ctx context.Context, b Backend, opts RunOptions) (*Report, error) {
	return b.Run(ctx, c.SPMD, opts)
}

// configErr builds the coded E005 diagnostic for an invalid run
// configuration.
func configErr(backend, format string, args ...any) error {
	return diag.Errorf(backend, diag.CodeConfig, diag.Pos{}, format, args...)
}

type simulatorBackend struct{}

func (simulatorBackend) Name() string { return "sim" }

func (simulatorBackend) Run(ctx context.Context, p *spmd.Program, opts RunOptions) (*Report, error) {
	if opts.Workers != 0 || opts.MailboxDepth != 0 || opts.StallTimeout != 0 || opts.MaxRestarts != 0 || opts.HardCrashes {
		return nil, configErr("sim", "Workers/MailboxDepth/StallTimeout/MaxRestarts/HardCrashes configure the concurrent backend; the simulator takes none")
	}
	res, err := sim.RunContext(ctx, p, sim.Config{
		Params:             opts.Params,
		MaxSeconds:         opts.MaxSeconds,
		Profile:            opts.Profile,
		Fault:              opts.Fault,
		CheckpointInterval: opts.CheckpointInterval,
		Reduce:             opts.Reduce,
		Trace:              opts.Trace,
		MaxCells:           opts.MaxCells,
	})
	if err != nil {
		return nil, err
	}
	return &Report{
		Backend:       "sim",
		Time:          res.Time,
		Stats:         res.Stats,
		Aborted:       res.Aborted,
		Scalars:       res.Scalars,
		Arrays:        res.Arrays,
		HotStatements: res.Profile,
		Trace:         res.Trace,
	}, nil
}

type concurrentBackend struct{}

func (concurrentBackend) Name() string { return "concurrent" }

func (concurrentBackend) Run(ctx context.Context, p *spmd.Program, opts RunOptions) (*Report, error) {
	switch {
	case opts.MaxSeconds > 0:
		return nil, configErr("exec", "MaxSeconds bounds simulated time; bound the concurrent backend with a context deadline")
	case opts.Profile:
		return nil, configErr("exec", "per-statement profiling is simulator-only; trace the run instead (RunOptions.Trace)")
	}
	res, err := exec.Run(ctx, p, exec.Config{
		Params:             opts.Params,
		Workers:            opts.Workers,
		MailboxDepth:       opts.MailboxDepth,
		StallTimeout:       opts.StallTimeout,
		Trace:              opts.Trace,
		Fault:              opts.Fault,
		CheckpointInterval: opts.CheckpointInterval,
		MaxRestarts:        opts.MaxRestarts,
		HardCrashes:        opts.HardCrashes,
		Reduce:             opts.Reduce,
		MaxCells:           opts.MaxCells,
	})
	if err != nil {
		return nil, err
	}
	return &Report{
		Backend:           "concurrent",
		Time:              res.Time,
		Stats:             res.Stats,
		Scalars:           res.Scalars,
		Arrays:            res.Arrays,
		Workers:           res.Workers,
		TrafficMessages:   res.TrafficMessages,
		Trace:             res.Trace,
		Restarts:          res.Restarts,
		HardRestarts:      res.HardRestarts,
		WireDrops:         res.WireDrops,
		WireRetransmits:   res.WireRetransmits,
		WireDuplicates:    res.WireDuplicates,
		WireDupSuppressed: res.WireDupSuppressed,
	}, nil
}

// Diff runs the program through both backends — optionally traced, and
// optionally under the same seeded fault plan and checkpoint interval — and
// compares numeric results, communication statistics (including the fault
// and recovery counters), and (when traced) per-class event counts
// bit-for-bit. HardCrashes cannot be compared; it returns a coded E005
// diagnostic.
func (c *Compiled) Diff(ctx context.Context, opts RunOptions) (*DiffReport, error) {
	if opts.HardCrashes {
		return nil, configErr("differ", "the differential oracle cannot compare HardCrashes runs (run-level heals re-execute intervals the simulator models once)")
	}
	d := exec.Differ{
		Sim: sim.Config{
			Params:     opts.Params,
			MaxSeconds: opts.MaxSeconds,
			Profile:    opts.Profile,
			MaxCells:   opts.MaxCells,
		},
		Exec: exec.Config{
			Params:       opts.Params,
			Workers:      opts.Workers,
			MailboxDepth: opts.MailboxDepth,
			StallTimeout: opts.StallTimeout,
			MaxRestarts:  opts.MaxRestarts,
			MaxCells:     opts.MaxCells,
		},
		Trace:              opts.Trace,
		Fault:              opts.Fault,
		CheckpointInterval: opts.CheckpointInterval,
		Reduce:             opts.Reduce,
	}
	rep, err := d.Run(ctx, c.SPMD)
	if err != nil {
		var ce *exec.ConfigError
		if errors.As(err, &ce) {
			return nil, configErr("differ", "%s", ce.Msg)
		}
		return nil, err
	}
	return rep, nil
}

// DiffReport is the outcome of a differential sim-vs-exec run (see
// exec.DiffReport).
type DiffReport = exec.DiffReport

// Diags returns every non-fatal diagnostic the compilation emitted —
// analysis degradations (skipped directives, alignment fallbacks) followed
// by communication-placement notes — with source positions.
func (c *Compiled) Diags() []Diagnostic {
	out := make([]Diagnostic, 0, len(c.Result.Diags)+len(c.SPMD.Diags))
	out = append(out, c.Result.Diags...)
	out = append(out, c.SPMD.Diags...)
	return out
}

// Profile returns the per-pass instrumentation of the compilation: one entry
// per pass execution (including lazy re-runs after invalidation) plus the
// SPMD generation step, and any snapshots requested via Options.DumpAfter.
func (c *Compiled) Profile() *CompileProfile { return c.Result.Profile }

// FormatHotStatements renders the per-statement time attribution
// (Report.HotStatements) as a table of the top n hottest statements. The
// name disambiguates the two profiles: Profile() is the compile-time
// CompileProfile, HotStatements the runtime view.
func FormatHotStatements(hot []StmtProfile, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %12s %10s  statement\n", "line", "instances", "seconds")
	for i, p := range hot {
		if i >= n {
			break
		}
		fmt.Fprintf(&b, "%8d %12d %10.4f  s%d (%s)\n",
			p.Stmt.Line, p.Instances, p.Seconds, p.Stmt.ID, p.Stmt.Kind)
	}
	return b.String()
}

// DumpSPMD renders the generated SPMD program (guards and communication).
func (c *Compiled) DumpSPMD() string { return c.SPMD.Dump() }

// StmtLabels returns the statement-ID → human-readable-label table that
// trace events and summaries reference (the same labels a TraceRecorder
// attaches to its events).
func (c *Compiled) StmtLabels() map[int]string { return c.SPMD.StmtLabels() }

// FormatStmtLabels renders the statement-label table in ID order — the key
// for reading per-statement trace histograms and Chrome trace exports.
func (c *Compiled) FormatStmtLabels() string {
	labels := c.StmtLabels()
	ids := make([]int, 0, len(labels))
	for id := range labels {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, "%4d  %s\n", id, labels[id])
	}
	return b.String()
}

// MappingReport lists every mapping decision: scalar definitions, privatized
// arrays, and control flow statements.
func (c *Compiled) MappingReport() string {
	var b strings.Builder
	res := c.Result
	fmt.Fprintf(&b, "grid %s\n", res.Mapping.Grid)

	var lines []string
	for _, m := range res.Scalars {
		lines = append(lines, "scalar "+m.String())
	}
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l + "\n")
	}

	var arrays []string
	for _, ap := range res.Arrays {
		arrays = append(arrays, "array "+ap.String())
	}
	sort.Strings(arrays)
	for _, l := range arrays {
		b.WriteString(l + "\n")
	}

	for _, st := range res.Prog.Stmts {
		if st.Kind != ir.SIf && st.Kind != ir.SIfGoto {
			continue
		}
		state := "executed on all processors"
		if res.CtrlPrivatized(st) {
			state = "privatized"
		}
		fmt.Fprintf(&b, "control s%d (line %d): %s\n", st.ID, st.Line, state)
	}

	for _, iv := range res.Inductions {
		fmt.Fprintf(&b, "induction %s in %s-loop: init=%d incr=%d\n",
			iv.Var.Name, iv.Loop.Index.Name, iv.Init, iv.Incr)
	}
	for _, red := range res.Reductions {
		fmt.Fprintf(&b, "reduction %s (%s) carried by %s-loop\n",
			red.Var.Name, red.Op, red.Loop.Index.Name)
	}
	return b.String()
}

// ExplainPriv renders the privatization classification of the compilation:
// one line per (variable, loop) candidate with the decision and its reason
// — including why each declined variable was serialized and which blocking
// reference is responsible — followed by the annotations the inference pass
// inserted. phpfc -explain-priv prints it.
func (c *Compiled) ExplainPriv() string {
	var b strings.Builder
	fmt.Fprintf(&b, "privatization mode: %s\n", c.Opts.Privatization)
	sum := c.Result.Priv
	if sum == nil || len(sum.Classes) == 0 {
		b.WriteString("no privatization candidates\n")
		return b.String()
	}
	for i := range sum.Classes {
		cl := &sum.Classes[i]
		fmt.Fprintf(&b, "%s wrt %s-loop: %s", cl.Var.Name, cl.Loop.Index.Name, cl.Decision)
		if cl.Directive {
			b.WriteString(" [directive]")
		}
		if cl.Inserted {
			b.WriteString(" [inserted]")
		}
		fmt.Fprintf(&b, " — %s\n", cl.Reason)
	}
	for _, l := range c.Result.Prog.Loops {
		if len(l.InferredNew) > 0 {
			fmt.Fprintf(&b, "%s-loop inferred new(%s)\n", l.Index.Name, strings.Join(l.InferredNew, ","))
		}
		if len(l.InferredLast) > 0 {
			fmt.Fprintf(&b, "%s-loop inferred lastprivate(%s)\n", l.Index.Name, strings.Join(l.InferredLast, ","))
		}
	}
	return b.String()
}

// ReducePlanReport renders the reduceplan classification: one line per
// recognized reduction with the static privatizable-vs-collective decision
// and the strategy the given runtime mode would actually use. A privatize
// line marked E005 is the configuration both backends reject at run time
// (ReducePrivatize demands every reduction leave the collective path).
// phpfc -reduce prints it.
func (c *Compiled) ReducePlanReport(mode ReduceMode) string {
	var b strings.Builder
	fmt.Fprintf(&b, "reduce mode: %s\n", mode)
	rp := c.Result.ReducePlan
	if rp == nil || len(rp.Decisions) == 0 {
		b.WriteString("no recognized reductions\n")
		return b.String()
	}
	for _, d := range rp.Decisions {
		switch {
		case !d.Privatizable && mode == ReducePrivatize:
			fmt.Fprintf(&b, "%s (%s): E005 — %s\n", d.Red.Var.Name, d.Red.Op, d.Reason)
		case !d.Privatizable:
			fmt.Fprintf(&b, "%s (%s): collective — %s\n", d.Red.Var.Name, d.Red.Op, d.Reason)
		case mode == ReduceCollective:
			fmt.Fprintf(&b, "%s (%s): collective (privatizable; mode forces collective)\n",
				d.Red.Var.Name, d.Red.Op)
		default:
			fmt.Fprintf(&b, "%s (%s): privatized\n", d.Red.Var.Name, d.Red.Op)
		}
	}
	return b.String()
}

// CommReport summarizes the communication plan.
func (c *Compiled) CommReport() string {
	p := c.SPMD.Plan
	var b strings.Builder
	counts := p.CountByClass()
	var classes []dist.CommClass
	for cl := range counts {
		classes = append(classes, cl)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, cl := range classes {
		fmt.Fprintf(&b, "%s: %d\n", cl, counts[cl])
	}
	b.WriteString(p.Summary())
	if len(p.Reqs) > 0 {
		b.WriteString("\n")
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Benchmark sources (the paper's §5 programs)

// TOMCATVSource returns the TOMCATV kernel (§5.1) at the given size.
func TOMCATVSource(n, niter int) string { return programs.TOMCATV(n, niter) }

// DGEFASource returns the DGEFA kernel (§5.2) at the given size.
func DGEFASource(n int) string { return programs.DGEFA(n) }

// APPSPSource returns the APPSP-style kernel (§5.3); twoD selects the fixed
// 2-D distribution, otherwise the 1-D distribution with transposes.
func APPSPSource(nx, ny, nz, niter int, twoD bool) string {
	return programs.APPSP(nx, ny, nz, niter, twoD)
}

// SmoothSource returns the quickstart example's three-point smoothing
// kernel: the smallest program with real nearest-neighbor communication.
func SmoothSource(n, niter int) string { return programs.Smooth(n, niter) }

// HistogramSource returns the reduce sweep's commutative-update histogram
// kernel: h(key(i)) = h(key(i)) + 1 through a data-dependent subscript. Its
// counts are integers, so every reduction strategy reproduces it exactly.
func HistogramSource(n, m, niter int) string { return programs.Histogram(n, m, niter) }

// DotSweepSource returns the reduce sweep's dot-product sweep kernel:
// r(j) = r(j) + x(i,j)*y(i,j) carried by the i-loop.
func DotSweepSource(n, m int) string { return programs.DotSweep(n, m) }

// FigureSource returns one of the paper's figure examples ("figure1",
// "figure2", "figure4", "figure5", "figure6", "figure7").
func FigureSource(name string) (string, bool) {
	s, ok := programs.Figures[name]
	return s, ok
}

// FigureNames lists the available figure examples, sorted.
func FigureNames() []string {
	var out []string
	for n := range programs.Figures {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
