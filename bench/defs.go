package main

// The metric tables: every name this program emits, with its unit and the
// direction that counts as better. BENCHMARK.json repeats them (adding the
// regression bounds); smoke_test.go fails when the two drift apart.
//
// Clocks: a per-layer name containing "sim_", and every machine.*_per_op
// count, is on the simulated clock (the modelled SP2) and exact; everything
// else is host time, host CPU, or host memory of this Go process.

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Exact marks a value that must repeat bit for bit between two runs of
	// one commit with one seed; -compare checks those for equality.
	Exact bool
}

// endToEndDefs are measured with tracing off and reported with -trace 0;
// BENCHMARK.json bounds each. setup_s and op_ms_quiet are built
// from every piece's quiet execution (see quiet in stats.go).
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "op_ms_quiet", Unit: "ms", Better: "lower"},
	{Name: "allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower"},
}

// wholeRunDefs are the same run's figures over all of its ops, slow phases
// included. They are printed and stored with every untraced run but carry no
// bound: on the machines this runs on they move by more than any usable one.
var wholeRunDefs = []metricDef{
	{Name: "setup_s_median", Unit: "s", Better: "lower"},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "op_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
}

// passNames is the declared pipeline order (core.Pipeline); each gets a
// pass.<name>_us per-layer metric.
var passNames = []string{"ir", "cfg", "ssa", "constprop", "induction",
	"autopriv", "reduceplan", "mapping", "analyze", "slots"}

// cellNames are the sim_cells inputs, in canonical order.
var cellNames = []string{"tp", "tomcatv_selected", "tomcatv_replication",
	"dgefa_aligned", "appsp_2d_partial", "appsp_1d_nopriv"}

// perLayerDefs are reported with -trace 1. A layer the workload never enters
// reports 0 (see README.md, "Zero means the layer did no work").
var perLayerDefs = func() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	exact := func(name, unit string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: "lower", Exact: true}
	}
	defs := []metricDef{
		exact("sim_s_per_op", "sim_s"),
		exact("sim_msgs_per_op", "count"),
		exact("sim_bytes_per_op", "B"),

		lo("lexer.scan_us_p50", "us"),
		exact("lexer.tokens_per_op", "count"),
		lo("lexer.ns_per_token", "ns"),
		lo("parser.self_us_p50", "us"),
		lo("parser.allocs_per_parse", "count"),

		lo("core.analyze_us_p50", "us"),
		lo("core.manager_self_us", "us"),
	}
	for _, p := range passNames {
		defs = append(defs, lo("pass."+p+"_us", "us"))
	}
	defs = append(defs,
		exact("pass.reruns_per_op", "count"),
		exact("pass.diags_per_op", "count"),

		lo("spmd.generate_us_p50", "us"),
		exact("spmd.stmt_plans_per_op", "count"),
		exact("spmd.requirements_per_op", "count"),

		lo("eval.walk_ms_p50", "ms"),
		lo("eval.newstate_us", "us"),
		exact("eval.stmt_instances_per_op", "count"),
		exact("eval.loop_entries_per_op", "count"),
		lo("eval.ns_per_stmt_instance", "ns"),
		lo("eval.allocs_per_stmt_instance", "count"),
		lo("eval.execset_ns", "ns"),
		lo("eval.ownerset_ns", "ns"),

		lo("sim.run_ms_p50", "ms"),
		lo("sim.self_ms", "ms"),
		lo("sim.ns_per_stmt_instance", "ns"),
		lo("sim.allocs_per_stmt_instance", "count"),

		lo("machine.send_ns", "ns"),
		lo("machine.multicast_ns", "ns"),
		lo("machine.shift_ns", "ns"),
		lo("machine.reduce_ns", "ns"),
		lo("machine.treemerge_ns", "ns"),
		exact("machine.msgs_per_op", "count"),
		exact("machine.bytes_per_op", "B"),
		exact("machine.broadcasts_per_op", "count"),
		exact("machine.shifts_per_op", "count"),
		exact("machine.reductions_per_op", "count"),
		exact("machine.merges_per_op", "count"),

		lo("exec.run_ms_p50", "ms"),
		lo("exec.over_sim_ratio", "ratio"),
		lo("exec.traffic_msgs_per_op", "count"),
		lo("exec.us_per_traffic_msg", "us"),
		lo("exec.allocs_per_op", "count"),
		lo("exec.goroutines_leaked", "count"),

		lo("trace.emit_ns", "ns"),
		lo("trace.sim_overhead_ratio", "ratio"),
		exact("trace.events_per_op", "count"),

		lo("serve.handler_us_p50", "us"),
		lo("serve.transport_us", "us"),
		lo("serve.decode_us", "us"),
		lo("serve.admit_ns", "ns"),
		lo("serve.cache_hit_ns", "ns"),
		lo("serve.cache_miss_us", "us"),
		lo("serve.encode_us", "us"),
		lo("serve.resp_bytes_per_op", "B"),
		hi("serve.hit_rate", "ratio"),
		lo("serve.evictions_per_op", "count"),
		lo("serve.shed_rate", "ratio"),
		lo("serve.service_p50_ms", "ms"),
		lo("serve.service_p99_ms", "ms"),
		lo("serve.queue_p99_ms", "ms"),
		lo("serve.status_5xx", "count"),
	)
	for _, c := range cellNames {
		defs = append(defs, lo("cell."+c+"_ms", "ms"), exact("cell."+c+"_sim_s", "sim_s"))
	}
	return append(defs,
		lo("bench.op_ms_p50", "ms"),
		lo("bench.op_ms_p99", "ms"),
		lo("bench.trace_overhead_ratio", "ratio"),
		hi("bench.span_coverage", "ratio"),
		hi("bench.samples", "count"),
	)
}()

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its value.
type metrics map[string]value

// fill returns one value per definition, 0 where vals has none.
func fill(defs []metricDef, vals map[string]float64) metrics {
	out := make(metrics, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}
