package main

// One workload run: set-up (inputs, reference pass, pins, server, warm-up),
// the measured loop, and the verified op each loop iteration performs.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"phpf"
	"phpf/internal/core"
	"phpf/internal/lexer"
	"phpf/internal/parser"
	"phpf/internal/serve"
	"phpf/internal/spmd"
)

// config is one workload run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// spans, when set, is where the traced run writes its span file.
	spans string
	// pins is the parsed expected.json; nil skips the pin check (only
	// -update-expected does that).
	pins pins
}

// reference is what the set-up's reference pass recorded for one input.
type reference struct {
	out outcome
	// compiled is nil for a serve workload (see refer).
	compiled *phpf.Compiled
	// rep is the simulator's report (executed inputs): final memory (scalars
	// only for a serve workload) and machine statistics.
	rep *phpf.Report
}

// instance is a set-up workload, ready to run ops.
type instance struct {
	def    *workloadDef
	seed   int64
	inputs []input
	refs   []reference
	// pinned is the reference pass summed by pin key: what expected.json
	// must hold.
	pinned  map[string]outcome
	order   []int // cycle workloads: the seeded input order
	clients int

	// Serve workloads.
	srv  *serve.Server
	ts   *httptest.Server
	http *http.Client
	// tr is the tracer the wrapped handler records into; nil outside a
	// traced measurement.
	tr atomic.Pointer[tracer]
	// respBytes counts response body bytes received.
	respBytes atomic.Int64
}

// clients is the number of driver goroutines: min(nproc, 2) closed-loop HTTP
// clients (and as many connections) for a serve workload, one for a cycle
// workload.
func (def *workloadDef) clients() int {
	if def.kind == kindServe {
		return min(runtime.NumCPU(), 2)
	}
	return 1
}

// setUp builds a workload instance: generated inputs, the reference pass
// with its sequential-reference and pin checks, the server and its warm
// cache, one warm-up op per input list, and a final GC so the measured loop
// starts from a collected heap. Every moment of it is attributed to a piece
// of stages: input generation, each input's reference pass, pins and server
// start, each input's warm-up, and the final GC.
func setUp(def *workloadDef, cfg config, stages *quiet) (*instance, error) {
	last := time.Now()
	lap := func(piece int) {
		now := time.Now()
		stages.add(piece, now.Sub(last))
		last = now
	}
	in := &instance{def: def, seed: cfg.seed, inputs: def.inputs(), clients: def.clients()}
	n := len(in.inputs)
	// The pieces: three single ones, then each input's reference pass, then
	// each input's warm-up.
	const generated, started, collected, perInput = 0, 1, 2, 3
	in.refs = make([]reference, n)
	outs := make([]outcome, n)
	lap(generated)
	for i := range in.inputs {
		if err := in.refer(i); err != nil {
			return nil, fmt.Errorf("%s: reference pass: %s: %w", def.name, in.inputs[i].name, err)
		}
		outs[i] = in.refs[i].out
		lap(perInput + i)
	}
	in.pinned = sumPins(in.inputs, outs)
	if cfg.pins != nil {
		if err := checkPins(def.name, in.pinned, cfg.pins[def.name]); err != nil {
			return nil, err
		}
	}
	in.order = rand.New(rand.NewSource(cfg.seed)).Perm(len(in.inputs))

	var warm error
	if def.kind == kindServe {
		in.srv = serve.New(serve.Config{})
		in.ts = httptest.NewServer(http.HandlerFunc(in.handle))
		in.http = &http.Client{Transport: &http.Transport{
			MaxIdleConns: in.clients, MaxIdleConnsPerHost: in.clients, MaxConnsPerHost: in.clients,
		}}
	}
	lap(started)
	if def.kind == kindServe {
		for i := range in.inputs {
			if _, warm = in.request(i, nil, 0); warm != nil {
				warm = fmt.Errorf("%s: %w", in.inputs[i].name, warm)
				break
			}
			lap(perInput + n + i)
		}
	} else {
		warm = in.cycle(nil, 0, func(i int, _ time.Duration) { lap(perInput + n + i) })
	}
	if warm != nil {
		in.close()
		return nil, fmt.Errorf("%s: warm-up: %w", def.name, warm)
	}
	runtime.GC()
	lap(collected)
	return in, nil
}

// close stops the server and its connections.
func (in *instance) close() {
	if in.ts != nil {
		in.http.CloseIdleConnections()
		in.ts.Close()
	}
}

// refer runs input i through the public API once and records what every
// later op must reproduce.
func (in *instance) refer(i int) error {
	inp, ref := &in.inputs[i], &in.refs[i]
	c, err := phpf.Compile(inp.src, inp.procs, inp.opts)
	if err != nil {
		return err
	}
	ref.compiled = c
	if in.def.kind == kindCompile {
		ref.out = compiledOutcome(c)
		return nil
	}
	rep, err := c.Execute(context.Background(), phpf.Simulator(), phpf.RunOptions{})
	if err != nil {
		return err
	}
	if inp.check != nil {
		if err := inp.check(rep); err != nil {
			return err
		}
	}
	ref.rep, ref.out = rep, reportOutcome(rep)
	if in.def.kind == kindServe {
		// A response is verified by its time, stats and scalars. Keeping 512
		// compiled programs and memory images alive would make the
		// benchmark's own references most of the heap that the server's
		// collector marks during the measured loop.
		ref.compiled, rep.Arrays = nil, nil
	}
	return nil
}

// program returns input i's SPMD program: the reference pass's, or a fresh
// compilation for a serve workload, which does not keep them.
func (in *instance) program(i int) (*spmd.Program, error) {
	if c := in.refs[i].compiled; c != nil {
		return c.SPMD, nil
	}
	inp := &in.inputs[i]
	c, err := phpf.Compile(inp.src, inp.procs, inp.opts)
	if err != nil {
		return nil, err
	}
	return c.SPMD, nil
}

// ---------------------------------------------------------------------------
// Ops

// probe holds one input's probe timings, taken just before a traced op by
// separate identical calls (see span.probe).
type probe struct {
	scan time.Duration // lexer.Scan of the source
	walk time.Duration // eval.NewState + eval.Walk with the counting backend
}

// cycle is one op of a compile, sim_cells or exec_concurrent workload: a
// pass over the whole input list in the seeded order. Each input's wall time
// goes to took, when that is not nil.
func (in *instance) cycle(tr *tracer, op int64, took func(i int, d time.Duration)) error {
	var pre []probe
	parent := noSpan
	if tr != nil {
		pre = in.probeInputs()
		parent = tr.begin("op", noSpan, op)
		defer tr.end(parent)
	}
	for _, i := range in.order {
		var p probe
		if pre != nil {
			p = pre[i]
		}
		under := parent
		if tr != nil && in.def.kind == kindSim {
			// One span per cell: the bridge to the BENCH_0..5 rows.
			under = tr.begin("cell."+in.inputs[i].name, parent, op)
		}
		t0 := time.Now()
		err := in.runInput(i, tr, under, op, p)
		if under != parent {
			tr.end(under)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", in.inputs[i].name, err)
		}
		if took != nil {
			took(i, time.Since(t0))
		}
	}
	return nil
}

// probeInputs times, outside any op span, the callees a traced op cannot
// time from outside while their callers run them.
func (in *instance) probeInputs() []probe {
	pre := make([]probe, len(in.inputs))
	for i := range in.inputs {
		if in.def.kind != kindExec {
			t0 := time.Now()
			_, _ = lexer.Scan(in.inputs[i].src) // the reference pass compiled this source
			pre[i].scan = time.Since(t0)
		}
		if in.def.kind == kindSim {
			w, err := walkProbe(in.refs[i].compiled.SPMD)
			if err == nil {
				pre[i].walk = w.newState + w.walk
			}
		}
	}
	return pre
}

// runInput compiles and/or executes input i and verifies the result against
// the reference pass. With a tracer it records the layer spans under parent.
func (in *instance) runInput(i int, tr *tracer, parent int, op int64, pre probe) error {
	inp, ref := &in.inputs[i], &in.refs[i]
	c := ref.compiled
	if in.def.kind != kindExec {
		var err error
		if c, err = compile(inp, tr, parent, op, pre); err != nil {
			return err
		}
	}
	if in.def.kind == kindCompile {
		if got := compiledOutcome(c); got != ref.out {
			return fmt.Errorf("compiled to %+v, reference pass had %+v", got, ref.out)
		}
		return nil
	}
	backend, name := phpf.Simulator(), "sim.run"
	if in.def.kind == kindExec {
		backend, name = phpf.Concurrent(), "exec.run"
	}
	s := noSpan
	if tr != nil {
		s = tr.begin(name, parent, op)
	}
	rep, err := c.Execute(context.Background(), backend, phpf.RunOptions{})
	if tr != nil {
		tr.end(s)
		if in.def.kind == kindSim {
			tr.lay("eval.walk", s, 0, pre.walk)
		}
	}
	if err != nil {
		return err
	}
	if got := reportOutcome(rep); got != ref.out {
		return fmt.Errorf("%s backend reports %+v, reference pass had %+v", backend.Name(), got, ref.out)
	}
	return sameMemory(rep, ref.rep)
}

// compile is phpf.Compile; with a tracer it is unrolled into the calls
// phpf.Compile makes, one span each.
func compile(inp *input, tr *tracer, parent int, op int64, pre probe) (*phpf.Compiled, error) {
	if tr == nil {
		return phpf.Compile(inp.src, inp.procs, inp.opts)
	}
	s := tr.begin("parser.parse", parent, op)
	ap, err := parser.Parse(inp.src)
	tr.end(s)
	tr.lay("lexer.scan", s, 0, pre.scan)
	if err != nil {
		return nil, err
	}
	s = tr.begin("core.analyze", parent, op)
	res, err := core.BuildAndAnalyze(ap, inp.procs, inp.opts)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	var offset time.Duration
	for _, st := range res.Profile.Stats {
		offset = tr.lay("pass."+st.Name, s, offset, st.Wall)
	}
	s = tr.begin("spmd.generate", parent, op)
	sp := spmd.Generate(res)
	tr.end(s)
	return &phpf.Compiled{Source: inp.src, NProcs: inp.procs, Opts: inp.opts, Result: res, SPMD: sp}, nil
}

// spanHeader carries a traced request's client span index and op id to the
// wrapped handler.
const spanHeader = "X-Bench-Span"

// handle is the test server's handler: serve.Server.ServeHTTP, timed as the
// serve.handler span while a traced measurement runs.
func (in *instance) handle(w http.ResponseWriter, r *http.Request) {
	tr := in.tr.Load()
	var parent int
	var op int64
	if tr != nil {
		if _, err := fmt.Sscanf(r.Header.Get(spanHeader), "%d %d", &parent, &op); err != nil {
			tr = nil // an untraced op of a traced loop
		}
	}
	if tr == nil {
		in.srv.ServeHTTP(w, r)
		return
	}
	s := tr.begin("serve.handler", parent, op)
	in.srv.ServeHTTP(w, r)
	tr.end(s)
}

// request is one op of a serve workload: POST input i's body to /v1/run,
// drain the response, and verify it against the reference pass. hit says
// whether the server answered from its compiled-program cache.
func (in *instance) request(i int, tr *tracer, op int64) (hit bool, err error) {
	req, err := http.NewRequest(http.MethodPost, in.ts.URL+"/v1/run", bytes.NewReader(in.inputs[i].body))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	s := noSpan
	if tr != nil {
		parent := tr.begin("op", noSpan, op)
		defer tr.end(parent)
		s = tr.begin("client.request", parent, op)
		req.Header.Set(spanHeader, fmt.Sprintf("%d %d", s, op))
	}
	resp, err := in.http.Do(req)
	if err != nil {
		return false, err
	}
	// Draining the body lets the connection be reused.
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if tr != nil {
		tr.end(s)
	}
	if err != nil {
		return false, err
	}
	in.respBytes.Add(int64(len(body)))
	return resp.Header.Get("X-Cache") == "hit", verifyResponse(resp.StatusCode, body, &in.refs[i])
}

func verifyResponse(status int, body []byte, ref *reference) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var got serve.RunResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("response: %w", err)
	}
	if float64(got.Time) != ref.out.SimS || got.Stats != ref.rep.Stats.String() {
		return fmt.Errorf("response has time=%v stats=%q, reference pass had time=%v stats=%q",
			got.Time, got.Stats, ref.out.SimS, ref.rep.Stats.String())
	}
	if len(got.Scalars) != len(ref.rep.Scalars) {
		return fmt.Errorf("response has %d scalars, reference pass had %d", len(got.Scalars), len(ref.rep.Scalars))
	}
	for name, want := range ref.rep.Scalars {
		// A NaN crosses the wire as the string "NaN", not bit for bit.
		g, ok := got.Scalars[name]
		if v := float64(g); !ok || math.Float64bits(v) != math.Float64bits(want) && !(math.IsNaN(v) && math.IsNaN(want)) {
			return fmt.Errorf("response scalar %s = %v, reference pass had %v", name, g, want)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// The measured loop

// sample is one measured loop's raw result.
type sample struct {
	opSeconds []float64 // wall time of every op, all clients
	// plainSeconds is the wall time of the untraced ops of a traced loop.
	plainSeconds []float64
	// pieces has one piece per input of a cycle; for a serve workload two
	// per input, its requests that missed the server's cache (2i) and those
	// that hit it (2i+1), which differ by a compilation.
	pieces   quiet
	failed   int64
	firstErr error
	// What the loop added to the process-wide host counters.
	wall, cpu      time.Duration
	mallocs, bytes uint64
}

func (s *sample) ops() float64 { return float64(len(s.opSeconds)) }

// add appends another measured loop of the same workload to s.
func (s *sample) add(o *sample) {
	s.opSeconds = append(s.opSeconds, o.opSeconds...)
	s.plainSeconds = append(s.plainSeconds, o.plainSeconds...)
	s.pieces.merge(&o.pieces)
	s.failed += o.failed
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
	s.wall += o.wall
	s.cpu += o.cpu
	s.mallocs += o.mallocs
	s.bytes += o.bytes
}

// measure runs ops for the given time on the instance's client goroutines
// (closed loop: a client starts its next op when the previous one has been
// verified) and returns every op's and every piece's wall times and the
// process-wide host counters around the loop. With a tracer, each client
// traces every second op, so the traced and the untraced ops that the
// tracing overhead compares see the same phases of the machine. slice numbers
// the loops of one run: each continues the run's request draws with a
// sequence of its own.
func (in *instance) measure(seconds float64, slice int, tr *tracer) *sample {
	in.tr.Store(tr)
	defer in.tr.Store(nil)
	type clientResult struct {
		opSeconds, plainSeconds []float64
		pieces                  quiet
		failed                  int64
		firstErr                error
	}
	results := make([]clientResult, in.clients)
	var wg sync.WaitGroup
	s := &sample{}
	before := readUsage()
	deadline := before.wall.Add(time.Duration(seconds * float64(time.Second)))
	least := int64(1) // ops per client, however short the loop
	if tr != nil {
		least = 2 // one untraced, one traced
	}
	for c := 0; c < in.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			var pieces *quiet // the traced loop's pieces carry the tracer's cost
			if tr == nil {
				pieces = &res.pieces
			}
			draws := rand.New(rand.NewSource(in.seed<<16 + int64(slice)<<8 + int64(c)))
			for n := int64(0); n < least || time.Now().Before(deadline); n++ {
				op := n*int64(in.clients) + int64(c)
				opTr := tr
				if n%2 == 0 {
					opTr = nil
				}
				t0 := time.Now()
				var err error
				if in.def.kind == kindServe {
					piece := 2 * draws.Intn(len(in.inputs))
					var hit bool
					if hit, err = in.request(piece/2, opTr, op); hit {
						piece++
					}
					if err == nil {
						pieces.add(piece, time.Since(t0))
					}
				} else {
					err = in.cycle(opTr, op, pieces.add)
				}
				d := time.Since(t0).Seconds()
				res.opSeconds = append(res.opSeconds, d)
				if tr != nil && opTr == nil {
					res.plainSeconds = append(res.plainSeconds, d)
				}
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = err
					}
				}
			}
		}(c)
	}
	wg.Wait()
	after := readUsage()
	s.wall, s.cpu = after.wall.Sub(before.wall), after.cpu-before.cpu
	s.mallocs, s.bytes = after.mallocs-before.mallocs, after.bytes-before.bytes
	for _, r := range results {
		s.opSeconds = append(s.opSeconds, r.opSeconds...)
		s.plainSeconds = append(s.plainSeconds, r.plainSeconds...)
		s.pieces.merge(&r.pieces)
		s.failed += r.failed
		if s.firstErr == nil {
			s.firstErr = r.firstErr
		}
	}
	return s
}

// endToEnd turns an untraced sample into the bounded end-to-end metrics
// (setup_s is added by the caller) and the unbounded whole-run figures.
// op_ms_quiet is the mean op time had every piece always run as fast as in
// its quiet execution.
func (s *sample) endToEnd() (bounded, whole map[string]float64) {
	ops := s.ops()
	bounded = map[string]float64{
		"op_ms_quiet":     s.pieces.total() * 1e3 / ops,
		"allocs_per_op":   float64(s.mallocs) / ops,
		"alloc_kb_per_op": float64(s.bytes) / 1024 / ops,
		"peak_rss_mb":     peakRSSMiB(),
	}
	whole = map[string]float64{
		"op_ms_p50":     median(s.opSeconds) * 1e3,
		"op_ms_p99":     quantile(s.opSeconds, 0.99) * 1e3,
		"ops_per_s":     (ops - float64(s.failed)) / s.wall.Seconds(),
		"cpu_ms_per_op": s.cpu.Seconds() * 1e3 / ops,
	}
	return bounded, whole
}
