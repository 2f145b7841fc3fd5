package main

import (
	"math"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestDeclarationMatchesTables: BENCHMARK.json and the Go metric tables name
// the same workloads and metrics with the same units and directions.
func TestDeclarationMatchesTables(t *testing.T) {
	decl, err := readDeclaration("../" + benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", decl.RunSeconds, defaultSeconds)
	}
	// serve_hot is defined but not declared (README.md, "Workloads").
	var declared []workloadDef
	for _, w := range workloads {
		if w.name != "serve_hot" {
			declared = append(declared, w)
		}
	}
	if len(decl.Workloads) != len(declared) {
		t.Fatalf("%d workloads declared, want %d", len(decl.Workloads), len(declared))
	}
	for i, w := range decl.Workloads {
		if w.Name != declared[i].name || w.Why != declared[i].why {
			t.Errorf("workload %d: declared %q (%q), defined %q (%q)", i, w.Name, w.Why, declared[i].name, declared[i].why)
		}
	}
	if len(decl.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics declared, %d defined", len(decl.EndToEnd), len(endToEndDefs))
	}
	for i, m := range decl.EndToEnd {
		if d := endToEndDefs[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end metric %d: declared %+v, defined %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(decl.PerLayer) != len(perLayerDefs) {
		t.Fatalf("%d per-layer metrics declared, %d defined", len(decl.PerLayer), len(perLayerDefs))
	}
	for i, m := range decl.PerLayer {
		if d := perLayerDefs[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: declared %+v, defined %+v", i, m, d)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestSmoke runs every workload briefly, untraced and traced: every declared
// metric comes out finite with its unit, no op fails, and no goroutine
// outlives a run.
func TestSmoke(t *testing.T) {
	pinned, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		def := &workloads[i]
		t.Run(def.name, func(t *testing.T) {
			goroutines := runtime.NumGoroutine()
			cfg := config{workload: def.name, seed: 1, seconds: 0.3, pins: pinned}
			brief := *def
			brief.setups = 2
			for _, cfg.trace = range []bool{false, true} {
				res, err := brief.run(cfg)
				if err != nil {
					t.Fatalf("trace=%t: %v", cfg.trace, err)
				}
				checkResult(t, res)
			}
			// Connection goroutines of the closed server and client retire
			// shortly after close returns.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > goroutines {
				t.Errorf("%d goroutines before the run, %d after", goroutines, n)
			}
		})
	}
}

func checkResult(t *testing.T, res *result) {
	traced := res.Trace
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("trace=%t: %d of %d ops failed: %s", traced, res.Failed, res.Attempted, res.FirstFailure)
	}
	defs := endToEndDefs
	if traced {
		defs = perLayerDefs
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("trace=%t: %d metrics emitted, %d declared", traced, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("trace=%t: %s missing", traced, d.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("trace=%t: %s = %v", traced, d.Name, v.Value)
		case v.Unit != d.Unit || v.Unit == "":
			t.Errorf("trace=%t: %s has unit %q, declared %q", traced, d.Name, v.Unit, d.Unit)
		case !metricName.MatchString(d.Name):
			t.Errorf("metric name %q", d.Name)
		case !traced && v.Value <= 0:
			t.Errorf("end-to-end %s = %v, want > 0", d.Name, v.Value)
		}
	}
	if traced && res.Metrics["exec.goroutines_leaked"].Value != 0 {
		t.Errorf("exec leaked %v goroutines", res.Metrics["exec.goroutines_leaked"].Value)
	}
}

// TestCorruptedPinIsCaught: a pin that differs in its last bit fails the run.
func TestCorruptedPinIsCaught(t *testing.T) {
	pinned, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	o := pinned["exec_concurrent"]["smooth"]
	o.SimS = math.Nextafter(o.SimS, 1)
	pinned["exec_concurrent"]["smooth"] = o
	_, err = runWorkload(config{workload: "exec_concurrent", seed: 1, seconds: 0.1, pins: pinned})
	if err == nil || !strings.Contains(err.Error(), "pin exec_concurrent/smooth") {
		t.Fatalf("corrupted pin not caught: err = %v", err)
	}
}

func TestVerdict(t *testing.T) {
	cases := []struct {
		a, b   side
		better string
		bound  float64
		want   string
	}{
		{side{10}, side{10.5}, "lower", 0.10, "same"},
		{side{10}, side{11.5}, "lower", 0.10, "worse"},
		{side{10}, side{8}, "lower", 0.10, "better"},
		{side{100}, side{80}, "higher", 0.10, "worse"},
		{side{100}, side{120}, "higher", 0.10, "better"},
		// Beyond the bound, but A's own runs spread wider and overlap B's.
		{side{9, 10, 12}, side{11.2, 11.5, 11.8}, "lower", 0.10, "unresolved"},
		// Spread wide, yet every B run is above every A run.
		{side{9, 10, 11}, side{13, 14, 15}, "lower", 0.10, "worse"},
	}
	for _, c := range cases {
		if _, got := verdict(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("verdict(%v, %v, %s, %v) = %s, want %s", c.a, c.b, c.better, c.bound, got, c.want)
		}
	}
}
