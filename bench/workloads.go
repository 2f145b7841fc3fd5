package main

// The five workloads: what their inputs are and why each exists. README.md
// has the long form; the `why` strings here are what BENCHMARK.json repeats.

import (
	"encoding/json"
	"fmt"
	"regexp"
	"runtime"
	"strconv"

	"phpf"
	"phpf/internal/programs"
)

// input is one generated program (or request) of a workload. The program
// under test only ever sees src/procs/opts, or body over HTTP.
type input struct {
	name string
	// pin is this input's key in expected.json; inputs sharing a key are
	// pinned by their sum, taken in canonical input order.
	pin   string
	src   string
	procs int
	opts  phpf.Options
	// body is the /v1/run request (serve workloads).
	body []byte
	// check compares final memory with a sequential reference written in
	// Go; nil for the paper's figures, which have none and rely on the pins.
	check func(rep *phpf.Report) error
}

type workloadDef struct {
	name string
	why  string
	kind kind
	// inputs builds the canonical input list; only its order and the
	// request draws depend on the seed.
	inputs func() []input
	// procs, when not 0, is the GOMAXPROCS the workload runs under.
	procs int
	// setups is how often an untraced run sets up: as often as took 3 to 5 s
	// where this was written. A count, not a time: the sum of the stages'
	// fastest executions falls as the set-ups get more, so a run that fitted
	// one more in would read lower.
	setups int
}

// limitProcs applies the workload's GOMAXPROCS, if it has one, and returns
// the call that restores the previous setting.
func (def *workloadDef) limitProcs() (restore func()) {
	if def.procs == 0 {
		return func() {}
	}
	before := runtime.GOMAXPROCS(def.procs)
	return func() { runtime.GOMAXPROCS(before) }
}

// kind selects how an op runs a workload's inputs.
type kind int

const (
	// kindCompile: one op compiles every input; nothing executes.
	kindCompile kind = iota
	// kindSim: one op cold-compiles and simulates every input.
	kindSim
	// kindExec: one op runs every (precompiled) input on the concurrent
	// backend.
	kindExec
	// kindServe: one op is one POST /v1/run drawn from the inputs.
	kindServe
)

var workloads = []workloadDef{
	{
		name: "compile", kind: kindCompile, inputs: compileInputs, setups: 64,
		why: "lexer, parser, the ten passes and spmd do all the work, eval/sim/exec/serve none: what phpfc users and every serve cache miss pay",
	},
	{
		name: "sim_cells", kind: kindSim, inputs: simCellInputs, setups: 8,
		why: "the paper's Table 1-3 cells as BENCH_0..5 measured them: eval walk and sim accounting are over 95% of host time, compile under 3%",
	},
	{
		// One processor: on a two-vCPU guest the workers' hand-offs cross
		// cores, and what such a hand-off costs changes with where the host
		// puts the vCPUs. Measured on such a guest: with two processors the
		// median op took 44-48 ms and the medians of two ten-run sets twenty
		// minutes apart differed by 26 %; with one, 37-40 ms and 1-3 %.
		name: "exec_concurrent", kind: kindExec, inputs: execInputs, procs: 1, setups: 64,
		why: "exec mailboxes and goroutines (on one processor) dominate and every worker repeats the eval walk; sim does nothing, compile is in set-up",
	},
	{
		name: "serve_hot", kind: kindServe, inputs: serveHotInputs, setups: 64,
		why: "closed-loop /v1/run on 15 cached programs: serve decode/admit/cache-hit/encode and HTTP; the compile layers do nothing",
	},
	{
		name: "serve_miss", kind: kindServe, inputs: serveMissInputs, setups: 5,
		why: "closed-loop /v1/run over 512 distinct sources against the 128-entry cache: inserts, evictions and ~75% misses put compile on the request path, the other requests take the hit path",
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// strategies are the Table 1 scalar-mapping compilers, by serve's opt names.
var strategies = []struct {
	name string
	opts func() phpf.Options
}{
	{"naive", phpf.NaiveOptions},
	{"producer", phpf.ProducerOptions},
	{"selected", phpf.SelectedOptions},
}

// Kernel sizes shared by the workloads (the BENCH_0..5 sizes).
const (
	tomcatvN, tomcatvIters = 65, 3
	dgefaN                 = 96
	appspN, appspIters     = 12, 2
	smoothN, smoothIters   = 64, 4
	histN, histM, histIter = 256, 32, 4
	dotN, dotM             = 48, 24
)

// compileInputs: the paper's six figures and seven kernels under every
// scalar strategy and both privatization sources, P=16.
func compileInputs() []input {
	type prog struct{ name, src string }
	var progs []prog
	for _, f := range phpf.FigureNames() {
		src, _ := phpf.FigureSource(f)
		progs = append(progs, prog{f, src})
	}
	progs = append(progs,
		prog{"tomcatv", programs.TOMCATV(tomcatvN, tomcatvIters)},
		prog{"dgefa", programs.DGEFA(dgefaN)},
		prog{"appsp_1d", programs.APPSP(appspN, appspN, appspN, appspIters, false)},
		prog{"appsp_2d", programs.APPSP(appspN, appspN, appspN, appspIters, true)},
		prog{"smooth", programs.Smooth(smoothN, smoothIters)},
		prog{"histogram", programs.Histogram(histN, histM, histIter)},
		prog{"dotsweep", programs.DotSweep(dotN, dotM)},
	)
	privs := []struct {
		name string
		mode phpf.PrivMode
	}{{"directives", phpf.PrivDirectives}, {"infer", phpf.PrivInfer}}
	var out []input
	for _, p := range progs {
		for _, s := range strategies {
			for _, pv := range privs {
				opts := s.opts()
				opts.Privatization = pv.mode
				out = append(out, input{
					name: p.name + "/" + s.name + "/" + pv.name, pin: p.name,
					src: p.src, procs: 16, opts: opts,
				})
			}
		}
	}
	return out
}

// tpSource is BenchmarkSimulatorThroughput's communication-free kernel.
const tpSource = `
program tp
parameter n = 1000
real a(n), bb(n)
integer i, it
!hpf$ align bb(i) with a(i)
!hpf$ distribute (block) :: a
do it = 1, 50
  do i = 1, n
    a(i) = bb(i) * 0.5 + 1.0
  end do
  do i = 1, n
    bb(i) = a(i)
  end do
end do
end
`

// simCellInputs: six cells of the paper's tables at the BENCH_0..5 sizes,
// in cellNames order.
func simCellInputs() []input {
	noPriv := phpf.SelectedOptions()
	noPriv.PrivatizeArrays = false
	tomcatv := programs.TOMCATV(tomcatvN, tomcatvIters)
	cells := []input{
		{src: tpSource, procs: 8, opts: phpf.SelectedOptions(), check: checkTP},
		{src: tomcatv, procs: 16, opts: phpf.SelectedOptions(), check: checkTOMCATV},
		{src: tomcatv, procs: 16, opts: phpf.NaiveOptions(), check: checkTOMCATV},
		{src: programs.DGEFA(dgefaN), procs: 16, opts: phpf.SelectedOptions(), check: checkDGEFA(dgefaN)},
		{src: programs.APPSP(appspN, appspN, appspN, appspIters, true), procs: 16,
			opts: phpf.SelectedOptions(), check: checkAPPSP},
		{src: programs.APPSP(appspN, appspN, appspN, appspIters, false), procs: 16,
			opts: noPriv, check: checkAPPSP},
	}
	for i := range cells {
		cells[i].name, cells[i].pin = cellNames[i], cellNames[i]
	}
	return cells
}

// execInputs: four kernels small enough that goroutine hand-offs, not
// arithmetic, set the time; P=4 workers.
func execInputs() []input {
	const dgefaSmall, smoothIt = 48, 2
	mk := func(name, src string, check func(*phpf.Report) error) input {
		return input{name: name, pin: name, src: src, procs: 4, opts: phpf.SelectedOptions(), check: check}
	}
	return []input{
		mk("dgefa", programs.DGEFA(dgefaSmall), checkDGEFA(dgefaSmall)),
		mk("smooth", programs.Smooth(smoothN, smoothIt), checkSmooth(smoothN, smoothIt)),
		mk("histogram", programs.Histogram(histN, histM, histIter), checkHistogram),
		mk("dotsweep", programs.DotSweep(dotN, dotM), checkDotSweep),
	}
}

// serveFigures are the built-in programs a /v1/run request can name that
// run to completion (figure2 and figure4 read uninitialized subscripts and
// answer 422 by design).
var serveFigures = []string{"figure1", "figure5", "figure6", "figure7", "smooth"}

func serveSource(fig string) string {
	if fig == "smooth" {
		return programs.Smooth(smoothN, smoothIters)
	}
	return programs.Figures[fig]
}

// serveHotInputs: 5 programs x 3 strategies named by figure, so every
// request after the warm-up is a cache hit.
func serveHotInputs() []input {
	var out []input
	for _, fig := range serveFigures {
		for _, s := range strategies {
			in := input{
				name: fig + "/" + s.name, pin: fig, src: serveSource(fig), procs: 4, opts: s.opts(),
				body: []byte(fmt.Sprintf(`{"figure":%q,"procs":4,"opt":%q,"backend":"sim"}`, fig, s.name)),
			}
			if fig == "smooth" {
				in.check = checkSmooth(smoothN, smoothIters)
			}
			out = append(out, in)
		}
	}
	return out
}

// missSources is how many distinct programs serve_miss draws from: four
// times the server's default 128-entry cache, so a uniform draw hits 25%.
const missSources = 512

var sizeParam = regexp.MustCompile(`parameter (n|nx) = (\d+)`)

// serveMissInputs: the serveFigures with their size parameter perturbed,
// sent as source text so every distinct size is a distinct cache key.
func serveMissInputs() []input {
	out := make([]input, 0, missSources)
	for j := 0; j < missSources; j++ {
		fig := serveFigures[j%len(serveFigures)]
		base := serveSource(fig)
		m := sizeParam.FindStringSubmatch(base)
		n0, _ := strconv.Atoi(m[2]) // the pattern admits digits only
		n := max(4, n0-51) + j/len(serveFigures)
		src := sizeParam.ReplaceAllLiteralString(base, fmt.Sprintf("parameter %s = %d", m[1], n))
		body, _ := json.Marshal(map[string]any{"source": src, "procs": 4, "backend": "sim"}) // strings and ints always encode
		in := input{
			name: fmt.Sprintf("%s/n=%d", fig, n), pin: fig, src: src, procs: 4,
			opts: phpf.SelectedOptions(), body: body,
		}
		if fig == "smooth" {
			in.check = checkSmooth(n, smoothIters)
		}
		out = append(out, in)
	}
	return out
}
