// Command bench is the repository's benchmark: five workloads, two clocks
// (host and simulated), end-to-end metrics measured with tracing off and
// per-layer metrics from a separate traced run. See README.md beside this
// file and BENCHMARK.json at the repository root.
//
// bench/run.sh builds this module and runs it from the repository root:
//
//	bash bench/run.sh                                  every workload, untraced then traced
//	bash bench/run.sh -workload sim_cells -seed 3      one untraced run
//	bash bench/run.sh -workload sim_cells -trace 1     one traced run (per-layer metrics)
//	bash bench/run.sh -compare A.json B.json           verdict per (workload, metric)
//	bash bench/run.sh -update-expected                 rewrite bench/expected.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 27

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run (default: all, each untraced then traced, one process per run)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for the input order and the request draws")
	fs.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "measured seconds per run")
	trace := fs.String("trace", "0", "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
	out := fs.String("out", "", "append the run(s) to this JSON file (the input of -compare)")
	fs.StringVar(&cfg.spans, "spans", "", "traced run: write the spans to this file as Chrome trace_event JSON")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")
	update := fs.Bool("update-expected", false, "rewrite bench/expected.json from this build's reference passes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var err error
	if cfg.trace, err = strconv.ParseBool(*trace); err != nil {
		return fail(fmt.Errorf("-trace %q: want 0 or 1", *trace))
	}
	if !(cfg.seconds > 0) {
		return fail(fmt.Errorf("-seconds %v: want a positive number", cfg.seconds))
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(errors.New("-compare takes two files"))
		}
		worse, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	case *update:
		if err := updateExpected(); err != nil {
			return fail(err)
		}
		return 0
	case cfg.workload == "":
		return runAll(cfg, *out, stdout, stderr)
	}

	if cfg.pins, err = loadPins(); err != nil {
		return fail(err)
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return fail(err)
	}
	res.print(stdout)
	if *out != "" {
		if err := appendRuns(*out, *res); err != nil {
			return fail(err)
		}
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "bench: %s: %d of %d ops failed; first: %s\n", res.Workload, res.Failed, res.Attempted, res.FirstFailure)
		return 1
	}
	return 0
}

// env records what a run's host numbers depend on.
type env struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	Go         string  `json:"go"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Clients    int     `json:"clients"`
	Setups     int     `json:"setups"`
	// Samples is the number of ops the medians and percentiles are over.
	Samples int `json:"samples"`
}

// result is one workload run as -out stores it.
type result struct {
	Workload     string  `json:"workload"`
	Trace        bool    `json:"trace"`
	Env          env     `json:"env"`
	Correct      bool    `json:"correct"`
	Attempted    int64   `json:"attempted"`
	Failed       int64   `json:"failed"`
	FirstFailure string  `json:"first_failure,omitempty"`
	Metrics      metrics `json:"metrics"`
	// WholeRun holds an untraced run's unbounded figures (wholeRunDefs).
	WholeRun metrics `json:"whole_run,omitempty"`
}

func (r *result) count(s *sample) {
	r.Attempted += int64(len(s.opSeconds))
	r.Failed += s.failed
	if r.FirstFailure == "" && s.firstErr != nil {
		r.FirstFailure = s.firstErr.Error()
	}
	r.Correct = r.Failed == 0
}

// print writes every metric by name with its unit, then — as the last line —
// the one-object summary the benchmark contract asks for.
func (r *result) print(w io.Writer) {
	defs := endToEndDefs
	if r.Trace {
		defs = perLayerDefs
	}
	fmt.Fprintf(w, "# %s trace=%t seed=%d seconds=%g samples=%d nproc=%d gomaxprocs=%d %s\n",
		r.Workload, r.Trace, r.Env.Seed, r.Env.Seconds, r.Env.Samples, r.Env.NProc, r.Env.GOMAXPROCS, r.Env.Go)
	for _, d := range defs {
		fmt.Fprintf(w, "%-32s %16.6g %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	if !r.Trace {
		fmt.Fprintln(w, "# over the whole run, slow phases included (no bound):")
		for _, d := range wholeRunDefs {
			fmt.Fprintf(w, "%-32s %16.6g %s\n", d.Name, r.WholeRun[d.Name].Value, d.Unit)
		}
	}
	line, _ := json.Marshal(struct { // finite floats and strings always encode
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// runWorkload is one run of one workload in this process.
func runWorkload(cfg config) (*result, error) {
	def := findWorkload(cfg.workload)
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	return def.run(cfg)
}

func (def *workloadDef) run(cfg config) (*result, error) {
	defer def.limitProcs()()
	if n := def.clients(); runtime.GOMAXPROCS(0) < n {
		return nil, fmt.Errorf("GOMAXPROCS=%d is below the %d load-generating clients: the load would measure its own queueing",
			runtime.GOMAXPROCS(0), n)
	}
	res := &result{Workload: def.name, Trace: cfg.trace, Env: env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: os.Getenv("GOGC"),
		Go: runtime.Version(), Seed: cfg.seed, Seconds: cfg.seconds, Clients: def.clients(), Setups: 1,
	}}
	if res.Env.GOGC == "" {
		res.Env.GOGC = "100"
	}
	if cfg.trace {
		in, err := setUp(def, cfg, nil)
		if err != nil {
			return nil, err
		}
		defer in.close()
		return res, in.traced(cfg, res)
	}
	return res, untraced(def, cfg, res)
}

// untraced is the -trace 0 run: the end-to-end metrics. The workload's
// set-ups and as many equal slices of the measured loop take turns, so that
// the set-up's stages and the loop's pieces alike have the whole run, not a
// part of it, to meet the machine in a quiet moment. setup_s is the sum of
// every stage's quiet execution among the set-ups (see quiet in stats.go, as
// for op_ms_quiet); the median set-up is reported beside it.
func untraced(def *workloadDef, cfg config, res *result) error {
	var (
		stages quiet
		setups []float64
		loop   sample
	)
	for len(setups) < def.setups {
		t0 := time.Now()
		in, err := setUp(def, cfg, &stages)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		loop.add(in.measure(cfg.seconds/float64(def.setups), len(setups), nil))
		in.close()
	}
	res.count(&loop)
	res.Env.Setups, res.Env.Samples = len(setups), len(loop.opSeconds)
	bounded, whole := loop.endToEnd()
	bounded["setup_s"] = stages.total() / float64(len(setups))
	whole["setup_s_median"] = median(setups)
	res.Metrics, res.WholeRun = fill(endToEndDefs, bounded), fill(wholeRunDefs, whole)
	return nil
}

// traced is the -trace 1 run: the per-layer metrics, from one loop whose ops
// are alternately untraced (the base of the tracing overhead) and traced, and
// from the probes.
func (in *instance) traced(cfg config, res *result) error {
	tr := newTracer()
	in.respBytes.Store(0) // drop the warm-up's responses
	s := in.measure(cfg.seconds/2, 0, tr)
	res.count(s)
	f := tr.fold()
	vals := map[string]float64{}
	spanMetrics(f, vals)
	res.Env.Samples = len(f.total["op"])
	vals["bench.op_ms_p50"] = median(s.plainSeconds) * ms
	vals["bench.op_ms_p99"] = quantile(s.plainSeconds, 0.99) * ms
	vals["bench.trace_overhead_ratio"] = median(f.total["op"]) / median(s.plainSeconds)
	switch in.def.kind {
	case kindSim:
		for i, name := range cellNames {
			vals["cell."+name+"_ms"] = median(f.total["cell."+name]) * ms
			vals["cell."+name+"_sim_s"] = in.refs[i].out.SimS
		}
	case kindServe:
		vals["serve.resp_bytes_per_op"] = float64(in.respBytes.Load()) / s.ops()
	}
	if err := in.layerProbes(vals); err != nil {
		return fmt.Errorf("%s: layer probes: %w", in.def.name, err)
	}
	res.Metrics = fill(perLayerDefs, vals)
	if cfg.spans != "" {
		return tr.writeChrome(cfg.spans)
	}
	return nil
}

// runAll runs every workload untraced and then traced, each run in its own
// process so that no run inherits another's heap, caches or goroutines.
func runAll(cfg config, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			args := []string{"-workload", w.name, "-trace", trace,
				"-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64)}
			if out != "" {
				args = append(args, "-out", out)
			}
			if cfg.spans != "" && trace == "1" {
				args = append(args, "-spans", cfg.spans+"."+w.name+".json")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "bench: %s -trace %s: %v\n", w.name, trace, err)
				code = 1
			}
		}
	}
	return code
}

// runFile is the -out file: every run appended to it so far.
type runFile struct {
	Runs []result `json:"runs"`
}

func readRuns(path string) (runFile, error) {
	var f runFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// appendRuns adds r to the runs already in path (a set of runs is built by
// repeated invocations, possibly with different seeds).
func appendRuns(path string, r result) error {
	f, err := readRuns(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f.Runs = append(f.Runs, r)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// updateExpected rewrites expected.json from this build's reference passes.
func updateExpected() error {
	p := pins{}
	for i := range workloads {
		def := &workloads[i]
		in, err := setUp(def, config{seed: 1}, nil)
		if err != nil {
			return err
		}
		in.close()
		p[def.name] = in.pinned
	}
	return writePins(p)
}
