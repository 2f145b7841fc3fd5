package main

// Per-layer metrics. All of them are measured from outside, by timing calls
// into each module's public functions: the spans of the traced ops give the
// per-op layer times, and the probes below give what a span cannot (unit
// costs, allocation counts, exact work counts).

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"phpf"
	"phpf/internal/core"
	"phpf/internal/dist"
	"phpf/internal/eval"
	"phpf/internal/exec"
	"phpf/internal/ir"
	"phpf/internal/lexer"
	"phpf/internal/machine"
	"phpf/internal/parser"
	"phpf/internal/serve"
	"phpf/internal/sim"
	"phpf/internal/spmd"
	"phpf/internal/trace"
)

// ---------------------------------------------------------------------------
// eval: the counting backend

// sampleEvery is how often the counting backend times ExecSet/OwnerSet in
// situ: once per this many statement instances.
const sampleEvery = 64

// counter is a no-op eval.Backend that counts the walk's events and, on
// every sampleEvery-th statement instance, times the two owner-set queries
// both real backends make there.
type counter struct {
	st          *eval.State
	instances   int64
	loopEntries int64

	execSet, ownerSet   time.Duration
	execSets, ownerSets int64
}

func (c *counter) LoopEntry(*ir.Loop, *spmd.LoopPlan) error { c.loopEntries++; return nil }
func (c *counter) Redistribute(*ir.Stmt) error              { return nil }
func (c *counter) Tick() error                              { return nil }

// LoopExit merges privatized partials as both real backends do, so the walk
// leaves the same memory behind.
func (c *counter) LoopExit(_ *ir.Loop, lp *spmd.LoopPlan) error {
	for _, cb := range lp.Combines {
		if c.st.PrivatizedActive(cb) {
			if _, err := c.st.MergePartials(cb); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *counter) Statement(st *ir.Stmt, sp *spmd.StmtPlan) error {
	c.instances++
	if c.instances%sampleEvery != 0 {
		return nil
	}
	t0 := time.Now()
	_, err := c.st.ExecSet(sp)
	t1 := time.Now()
	if err == nil {
		c.execSet += t1.Sub(t0)
		c.execSets++
	}
	if st.Lhs != nil && len(st.Lhs.Ast.Subs) > 0 {
		t0 = time.Now()
		_, err = c.st.OwnerSet(st.Lhs)
		t1 = time.Now()
		if err == nil {
			c.ownerSet += t1.Sub(t0)
			c.ownerSets++
		}
	}
	return nil
}

// walked is one counting walk's result.
type walked struct {
	newState, walk time.Duration
	counter
}

// walkProbe interprets p with the counting backend: the eval layer's share
// of a simulation, with no machine accounting behind it.
func walkProbe(p *spmd.Program) (walked, error) {
	var w walked
	t0 := time.Now()
	st, err := eval.NewState(p)
	if err == nil {
		err = st.ConfigureReduce(core.ReduceAuto, eval.Budget{})
	}
	w.newState = time.Since(t0)
	if err != nil {
		return w, err
	}
	w.st = st
	t0 = time.Now()
	err = eval.Walk(st, &w.counter)
	w.walk = time.Since(t0)
	return w, err
}

// clockPairNs is the cost of the two time.Now calls around an in-situ
// sample, subtracted from execset_ns/ownerset_ns.
func clockPairNs() float64 {
	const n = 1 << 16
	var d time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		d += time.Since(t0)
	}
	return float64(d.Nanoseconds()) / n
}

// ---------------------------------------------------------------------------
// Folding spans into metrics

const (
	us = 1e6 // seconds -> microseconds
	ms = 1e3
)

// spanMetrics derives the per-op layer times from the traced ops' spans.
func spanMetrics(f *folded, vals map[string]float64) {
	vals["lexer.scan_us_p50"] = median(f.self["lexer.scan"]) * us
	vals["parser.self_us_p50"] = median(f.self["parser.parse"]) * us
	vals["core.analyze_us_p50"] = median(f.total["core.analyze"]) * us
	vals["core.manager_self_us"] = mean(f.self["core.analyze"]) * us
	for _, p := range passNames {
		vals["pass."+p+"_us"] = mean(f.self["pass."+p]) * us
	}
	vals["spmd.generate_us_p50"] = median(f.total["spmd.generate"]) * us
	vals["eval.walk_ms_p50"] = median(f.total["eval.walk"]) * ms
	vals["sim.run_ms_p50"] = median(f.total["sim.run"]) * ms
	vals["sim.self_ms"] = mean(f.self["sim.run"]) * ms
	vals["exec.run_ms_p50"] = median(f.total["exec.run"]) * ms
	vals["serve.handler_us_p50"] = median(f.total["serve.handler"]) * us
	vals["serve.transport_us"] = median(f.self["client.request"]) * us
	vals["bench.span_coverage"] = f.coverage()
	vals["bench.samples"] = float64(len(f.total["op"]))
}

// ---------------------------------------------------------------------------
// Probes

// layerProbes fills the per-layer metrics the spans do not give, for the
// layers this workload enters. It runs after the traced ops, on one
// goroutine, so allocation deltas belong to the call between them.
func (in *instance) layerProbes(vals map[string]float64) error {
	machineProbes(vals)
	traceEmitProbe(vals)
	kind := in.def.kind
	if kind == kindCompile || kind == kindSim {
		in.frontEndProbes(vals)
	}
	if kind == kindCompile {
		return nil // nothing executes
	}
	if err := in.simProbes(vals); err != nil {
		return err
	}
	switch kind {
	case kindExec:
		return in.execProbes(vals)
	case kindServe:
		return in.serveProbes(vals)
	}
	return nil
}

// frontEndProbes: token and IR-size counts, scan unit cost, and parse
// allocations, over one pass of the inputs.
func (in *instance) frontEndProbes(vals map[string]float64) {
	var tokens, reruns, diags, plans, reqs int
	var scan time.Duration
	for i := range in.inputs {
		t0 := time.Now()
		toks, _ := lexer.Scan(in.inputs[i].src) // the reference pass compiled this source
		scan += time.Since(t0)
		tokens += len(toks)
		c := in.refs[i].compiled
		for _, st := range c.Profile().Stats {
			if st.Rerun {
				reruns++
			}
		}
		diags += c.Profile().DiagCount()
		plans += len(c.SPMD.Stmts)
		reqs += len(c.SPMD.Plan.Reqs)
	}
	before := mallocs()
	for i := range in.inputs {
		_, _ = parser.Parse(in.inputs[i].src)
	}
	vals["parser.allocs_per_parse"] = float64(mallocs()-before) / float64(len(in.inputs))
	vals["lexer.tokens_per_op"] = float64(tokens)
	vals["lexer.ns_per_token"] = float64(scan.Nanoseconds()) / float64(tokens)
	vals["pass.reruns_per_op"] = float64(reruns)
	vals["pass.diags_per_op"] = float64(diags)
	vals["spmd.stmt_plans_per_op"] = float64(plans)
	vals["spmd.requirements_per_op"] = float64(reqs)
}

// perOp is how many of the workload's inputs one op executes: all of them
// for a cycle, one (drawn uniformly) for a request.
func (in *instance) perOp() float64 {
	if in.def.kind == kindServe {
		return 1 / float64(len(in.inputs))
	}
	return 1
}

// simProbes: one counting walk, one simulation, and one traced simulation
// of every input's compiled program, plus the simulated-clock totals the
// reference pass recorded.
func (in *instance) simProbes(vals map[string]float64) error {
	var w walked
	var st machine.Stats
	var simS float64
	var plain, traced time.Duration
	var events int64
	cfgTraced := sim.Config{Trace: &trace.Options{}}
	var walkAllocs, simAllocs uint64
	for i := range in.inputs {
		p, err := in.program(i)
		if err != nil {
			return fmt.Errorf("compiling %s: %w", in.inputs[i].name, err)
		}
		m0 := mallocs()
		one, err := walkProbe(p)
		m1 := mallocs()
		if err != nil {
			return fmt.Errorf("eval walk of %s: %w", in.inputs[i].name, err)
		}
		t0 := time.Now()
		if _, err := sim.RunContext(context.Background(), p, sim.Config{}); err != nil {
			return fmt.Errorf("sim run of %s: %w", in.inputs[i].name, err)
		}
		t1 := time.Now()
		m2 := mallocs()
		res, err := sim.RunContext(context.Background(), p, cfgTraced)
		if err != nil {
			return fmt.Errorf("traced sim run of %s: %w", in.inputs[i].name, err)
		}
		traced += time.Since(t1)
		plain += t1.Sub(t0)
		walkAllocs += m1 - m0
		simAllocs += m2 - m1
		events += res.Trace.Seen()

		w.newState += one.newState
		w.walk += one.walk
		w.instances += one.instances
		w.loopEntries += one.loopEntries
		w.execSet, w.execSets = w.execSet+one.execSet, w.execSets+one.execSets
		w.ownerSet, w.ownerSets = w.ownerSet+one.ownerSet, w.ownerSets+one.ownerSets

		r := in.refs[i].rep
		simS += r.Time
		st.Messages += r.Stats.Messages
		st.BytesMoved += r.Stats.BytesMoved
		st.Broadcasts += r.Stats.Broadcasts
		st.Shifts += r.Stats.Shifts
		st.Reductions += r.Stats.Reductions
		st.Merges += r.Stats.Merges
	}
	k := in.perOp()
	n := float64(len(in.inputs))
	inst := float64(w.instances)
	pair := clockPairNs()
	perSample := func(d time.Duration, n int64) float64 {
		if n == 0 {
			return 0
		}
		return max(0, float64(d.Nanoseconds())/float64(n)-pair)
	}
	vals["eval.newstate_us"] = w.newState.Seconds() * us / n
	vals["eval.stmt_instances_per_op"] = inst * k
	vals["eval.loop_entries_per_op"] = float64(w.loopEntries) * k
	vals["eval.ns_per_stmt_instance"] = float64(w.walk.Nanoseconds()) / inst
	vals["eval.allocs_per_stmt_instance"] = float64(walkAllocs) / inst
	vals["eval.execset_ns"] = perSample(w.execSet, w.execSets)
	vals["eval.ownerset_ns"] = perSample(w.ownerSet, w.ownerSets)
	if in.def.kind != kindExec {
		vals["sim.ns_per_stmt_instance"] = float64(plain.Nanoseconds()) / inst
		vals["sim.allocs_per_stmt_instance"] = float64(simAllocs) / inst
		vals["trace.sim_overhead_ratio"] = traced.Seconds() / plain.Seconds()
		vals["trace.events_per_op"] = float64(events) * k
	}
	vals["sim_s_per_op"] = simS * k
	vals["sim_msgs_per_op"] = float64(st.Messages) * k
	vals["sim_bytes_per_op"] = float64(st.BytesMoved) * k
	vals["machine.msgs_per_op"] = float64(st.Messages) * k
	vals["machine.bytes_per_op"] = float64(st.BytesMoved) * k
	vals["machine.broadcasts_per_op"] = float64(st.Broadcasts) * k
	vals["machine.shifts_per_op"] = float64(st.Shifts) * k
	vals["machine.reductions_per_op"] = float64(st.Reductions) * k
	vals["machine.merges_per_op"] = float64(st.Merges) * k
	return nil
}

// execProbes: one more cycle on each backend, single-goroutine driver, for
// the concurrent backend's allocations, channel traffic, cost over the
// simulator, and leaked goroutines.
func (in *instance) execProbes(vals map[string]float64) error {
	goroutines := runtime.NumGoroutine()
	var traffic int64
	var execT, simT time.Duration
	var allocs uint64
	for i := range in.inputs {
		p := in.refs[i].compiled.SPMD
		m0 := mallocs()
		t0 := time.Now()
		res, err := exec.Run(context.Background(), p, exec.Config{})
		execT += time.Since(t0)
		allocs += mallocs() - m0
		if err != nil {
			return fmt.Errorf("exec run of %s: %w", in.inputs[i].name, err)
		}
		traffic += res.TrafficMessages
		t0 = time.Now()
		if _, err := sim.RunContext(context.Background(), p, sim.Config{}); err != nil {
			return fmt.Errorf("sim run of %s: %w", in.inputs[i].name, err)
		}
		simT += time.Since(t0)
	}
	vals["exec.over_sim_ratio"] = execT.Seconds() / simT.Seconds()
	vals["exec.traffic_msgs_per_op"] = float64(traffic)
	vals["exec.us_per_traffic_msg"] = execT.Seconds() * us / float64(traffic)
	vals["exec.allocs_per_op"] = float64(allocs)
	// Workers have all been joined when exec.Run returns; give the runtime
	// a moment to retire them before counting.
	for i := 0; i < 50 && runtime.NumGoroutine() > goroutines; i++ {
		time.Sleep(time.Millisecond)
	}
	vals["exec.goroutines_leaked"] = float64(max(0, runtime.NumGoroutine()-goroutines))
	return nil
}

// machineProbes: unit cost of the five machine operations the backends
// charge, on a 4x4 grid. Workload-independent.
func machineProbes(vals map[string]float64) {
	const n = 20000
	g := dist.NewGrid(4, 4)
	all := dist.AllProcs(g)
	loop := func(name string, f func(m *machine.Machine, i int)) {
		m := machine.New(g, machine.SP2())
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(m, i)
		}
		vals[name] = float64(time.Since(t0).Nanoseconds()) / n
	}
	loop("machine.send_ns", func(m *machine.Machine, i int) { m.Send(i%16, (i+5)%16, 8) })
	loop("machine.multicast_ns", func(m *machine.Machine, i int) { m.Multicast(i%16, all, 8) })
	loop("machine.shift_ns", func(m *machine.Machine, _ int) { m.Shift(all, 64) })
	loop("machine.reduce_ns", func(m *machine.Machine, _ int) { m.Reduce(all, 8) })
	loop("machine.treemerge_ns", func(m *machine.Machine, _ int) { m.TreeMerge(all, 256, 16) })
}

// traceEmitProbe: unit cost of recording one event. Workload-independent.
func traceEmitProbe(vals map[string]float64) {
	const n = 200000
	rec := trace.New(16, 1, trace.Options{})
	t0 := time.Now()
	for i := 0; i < n; i++ {
		rec.Emit(0, trace.Event{Kind: trace.Send, Proc: int32(i % 16), Peer: int32((i + 1) % 16),
			Stmt: 3, Req: 1, Bytes: 8, Time: float64(i)})
	}
	vals["trace.emit_ns"] = float64(time.Since(t0).Nanoseconds()) / n
}

// serveProbes: unit costs of the serve layer's public pieces on this
// workload's requests, and the server's own view of the measured traffic.
func (in *instance) serveProbes(vals map[string]float64) error {
	n := min(len(in.inputs), serve.DefaultCacheSize)

	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := serve.DecodeRunSpec(in.inputs[i].body); err != nil {
			return fmt.Errorf("decoding %s: %w", in.inputs[i].name, err)
		}
	}
	vals["serve.decode_us"] = time.Since(t0).Seconds() * us / float64(n)

	const loops = 20000
	adm := serve.NewAdmission(0, 0, 0)
	t0 = time.Now()
	for i := 0; i < loops; i++ {
		release, err := adm.Admit(context.Background(), "bench")
		if err != nil {
			return fmt.Errorf("admission probe: %w", err)
		}
		release()
	}
	vals["serve.admit_ns"] = float64(time.Since(t0).Nanoseconds()) / loops

	cache := serve.NewCache(0)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		inp := &in.inputs[i]
		_, _, err := cache.Get(inp.name, func() (*phpf.Compiled, error) {
			return phpf.Compile(inp.src, inp.procs, inp.opts)
		})
		if err != nil {
			return fmt.Errorf("cache miss probe: %w", err)
		}
	}
	vals["serve.cache_miss_us"] = time.Since(t0).Seconds() * us / float64(n)
	t0 = time.Now()
	for i := 0; i < loops; i++ {
		// Every key was inserted above and n is within the capacity.
		_, _, _ = cache.Get(in.inputs[i%n].name, nil)
	}
	vals["serve.cache_hit_ns"] = float64(time.Since(t0).Nanoseconds()) / loops

	// One handler call into a recorder gives a real response to re-encode.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/run", strings.NewReader(string(in.inputs[0].body)))
	in.srv.ServeHTTP(rec, req)
	var resp serve.RunResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return fmt.Errorf("encode probe: %w", err)
	}
	t0 = time.Now()
	for i := 0; i < loops; i++ {
		if _, err := json.Marshal(resp); err != nil {
			return fmt.Errorf("encode probe: %w", err)
		}
	}
	vals["serve.encode_us"] = time.Since(t0).Seconds() * us / loops

	snap := in.srv.Snapshot()
	vals["serve.hit_rate"] = snap.Cache.HitRate()
	vals["serve.evictions_per_op"] = float64(snap.Cache.Evictions) / float64(snap.Run)
	vals["serve.shed_rate"] = float64(snap.Shed) / float64(snap.Run)
	vals["serve.service_p50_ms"] = snap.ServiceP50Ms
	vals["serve.service_p99_ms"] = snap.ServiceP99Ms
	vals["serve.queue_p99_ms"] = snap.QueueP99Ms
	vals["serve.status_5xx"] = float64(snap.Status5xx)
	return nil
}
