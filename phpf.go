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
	"fmt"
	"sort"
	"strings"

	"phpf/internal/core"
	"phpf/internal/decide"
	"phpf/internal/diag"
	"phpf/internal/dist"
	"phpf/internal/eval"
	"phpf/internal/exec"
	"phpf/internal/fault"
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
	// Decisions is a compilation's mapping decisions by stable names (see
	// Compiled.Decisions).
	Decisions = decide.Decisions
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
	// 1-in-N sampling. The derived counters stay exact regardless.
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
	StmtProfile = eval.StmtProfile
)

// Diagnostic severities.
const (
	SeverityInfo    = diag.Info
	SeverityWarning = diag.Warning
	SeverityError   = diag.Error
)

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

// ParseReduceMode resolves a CLI/API reduce-mode name: "auto" (or ""),
// "collective", or "privatize". An unknown name is a coded E005 diagnostic.
func ParseReduceMode(s string) (ReduceMode, error) {
	if s == "" {
		return ReduceAuto, nil
	}
	mode, ok := core.ParseReduceMode(s)
	if !ok {
		return 0, eval.ConfigErrorf("", "unknown reduce %q (want auto, collective, or privatize)", s)
	}
	return mode, nil
}

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

// Strategy is one of Table 1's three scalar-mapping compilers, under the
// name -opt, the serving layer and the sweeps know it by.
type Strategy struct {
	Name string
	Opts Options
}

// Strategies lists the mapping strategies in Table 1's column order: naive,
// producer, selected.
func Strategies() []Strategy {
	return []Strategy{
		{"naive", NaiveOptions()},
		{"producer", ProducerOptions()},
		{"selected", SelectedOptions()},
	}
}

// OptionsByName resolves an optimization level (a Strategies name; "" means
// selected) and a privatization mode ("directives", "infer", "infer-strict";
// "" keeps the level's) to a compiler option set. An unknown name is a coded
// E005 diagnostic.
func OptionsByName(opt, privatize string) (Options, error) {
	if opt == "" {
		opt = "selected"
	}
	for _, s := range Strategies() {
		if s.Name != opt {
			continue
		}
		if privatize != "" {
			mode, ok := core.ParsePrivMode(privatize)
			if !ok {
				return Options{}, eval.ConfigErrorf("", "unknown privatize %q (want directives, infer, or infer-strict)", privatize)
			}
			s.Opts.Privatization = mode
		}
		return s.Opts, nil
	}
	return Options{}, eval.ConfigErrorf("", "unknown opt %q (want naive, producer, or selected)", opt)
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

// CacheKey returns a stable content hash identifying a compilation input:
// two calls with the same source text, processor count and option set
// return the same key, and any difference in them changes it. Serving
// layers key compiled-program caches on it (compile once, serve many);
// because the key covers the full input, a hit can reuse the Compiled
// without revalidation. The reduce mode is not part of the key: it is a
// run option, and one Compiled executes under any mode.
func CacheKey(source string, nprocs int, opts Options) string {
	h := sha256.New()
	// The version tag invalidates every cached key when the encoding (or
	// the meaning of an option) changes incompatibly.
	fmt.Fprintf(h, "phpf-cache-v5\x00procs=%d\x00opts=%+v\x00", nprocs, opts)
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
	// SPMD generation is not one of core's steps (spmd imports core); it is
	// timed the way they are, so -trace accounts for the whole compilation.
	var sp *spmd.Program
	res.Profile.Time("spmd", false, func() int {
		sp = spmd.Generate(res)
		return len(sp.Diags)
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

// RunOptions configures one execution on either backend. It is the one run
// configuration (eval.RunOptions), which the backends take as it is; fields a
// backend does not support are rejected by its Validate — the only check a
// configuration passes through — with a coded E005 diagnostic, not silently
// ignored.
type RunOptions = eval.RunOptions

// Report is the backend-independent outcome of one execution: the one run
// outcome (eval.Report), which the backends fill in directly.
type Report = eval.Report

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
func Backends() []string { return []string{eval.BackendSim, eval.BackendConcurrent} }

// BackendByName resolves a backend name ("sim", "concurrent").
func BackendByName(name string) (Backend, bool) {
	switch name {
	case eval.BackendSim:
		return Simulator(), true
	case eval.BackendConcurrent:
		return Concurrent(), true
	}
	return nil, false
}

// Execute runs the compiled program on the given backend, after the
// configuration passed Validate for it: an invalid one is a coded E005
// diagnostic on every backend, never a bare error from inside a run.
func (c *Compiled) Execute(ctx context.Context, b Backend, opts RunOptions) (*Report, error) {
	if err := opts.Validate(c.NProcs, b.Name()); err != nil {
		return nil, err
	}
	return b.Run(ctx, c.SPMD, opts)
}

type simulatorBackend struct{}

func (simulatorBackend) Name() string { return eval.BackendSim }

func (simulatorBackend) Run(ctx context.Context, p *spmd.Program, opts RunOptions) (*Report, error) {
	return sim.RunContext(ctx, p, opts)
}

type concurrentBackend struct{}

func (concurrentBackend) Name() string { return eval.BackendConcurrent }

func (concurrentBackend) Run(ctx context.Context, p *spmd.Program, opts RunOptions) (*Report, error) {
	return exec.Run(ctx, p, opts)
}

// Diff runs the program through both backends under the one configuration —
// optionally traced, and optionally under a seeded fault plan and checkpoint
// interval — and compares numeric results, communication statistics
// (including the fault and recovery counters), simulated time and (when
// traced) the planned messages and bytes per communication class and the
// per-statement time bit-for-bit. Every configuration the concurrent backend
// takes, Diff takes; an invalid one returns a coded E005 diagnostic.
func (c *Compiled) Diff(ctx context.Context, opts RunOptions) (*DiffReport, error) {
	return exec.Diff(ctx, c.SPMD, opts)
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

// PassNames lists the compilation pipeline's passes in execution order: the
// names Options.DumpAfter accepts and the compile profile reports.
func PassNames() []string { return core.PassNames() }

// Profile returns the per-pass instrumentation of the compilation: one entry
// per pass execution (including the re-runs after an induction rewrite) plus the
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

// Decisions records the compilation's mapping decisions by stable names; its
// JSON is phpfc -dump decisions, and the reports below are renderings of it.
func (c *Compiled) Decisions() *Decisions { return c.Result.Decisions() }

// MappingReport lists every mapping decision: scalar definitions, privatized
// arrays, control flow statements, inductions and reductions.
func (c *Compiled) MappingReport() string { return c.Decisions().MappingText() }

// ExplainPriv renders the privatization classification of the compilation:
// one line per (variable, loop) candidate with the decision and its reason
// — including why each declined variable was serialized and which blocking
// reference is responsible — followed by the annotations the inference pass
// inserted. phpfc -dump priv prints it.
func (c *Compiled) ExplainPriv() string { return c.Decisions().PrivText() }

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
// Figure sources (the benchmark programs are internal/programs')

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
