package exec

import (
	"context"
	"errors"
	"math"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"phpf/internal/core"
	"phpf/internal/fault"
	"phpf/internal/programs"
	"phpf/internal/sim"
	"phpf/internal/trace"
)

// chaosConfigs builds the seeded fault-plan matrix for one program, with
// crash times placed relative to the measured clean simulated time so a
// fail-stop reliably fires mid-loop regardless of program scale.
func chaosConfigs(cleanTime float64) map[string]Config {
	ckpt := cleanTime / 5
	return map[string]Config{
		"loss":     {Fault: &fault.Plan{Seed: 7, LossRate: 0.2}},
		"dup":      {Fault: &fault.Plan{Seed: 3, DupRate: 0.2}},
		"slowdown": {Fault: &fault.Plan{Seed: 1, Slowdowns: []fault.Slowdown{{Proc: 1, Factor: 3}}}},
		"checkpoint": {
			CheckpointInterval: ckpt,
		},
		"crash": {
			Fault:              &fault.Plan{Seed: 5, Crashes: []fault.Crash{{Proc: 1, At: 0.4 * cleanTime}}},
			CheckpointInterval: ckpt,
		},
		"mixed": {
			Fault: &fault.Plan{Seed: 11, LossRate: 0.1, DupRate: 0.1,
				Crashes: []fault.Crash{{Proc: 2, At: 0.6 * cleanTime}}},
			CheckpointInterval: ckpt,
		},
	}
}

// TestChaosMatrix is the chaos gate: for every seeded fault plan, the
// concurrent executor under real injected faults must agree with the
// simulator under the same plan — bitwise on every scalar and array
// element, on all cost-model statistics including the fault counters, and
// on per-class trace event counts. Includes mid-loop fail-stop crashes
// recovered via coordinated checkpoint/restart. Run under -race this is
// also the concurrency soak for the fault machinery.
func TestChaosMatrix(t *testing.T) {
	if os.Getenv("CHAOS_SKIP") == "1" {
		t.Skip("CHAOS_SKIP=1 set")
	}
	progs := map[string]string{
		"tomcatv": programs.TOMCATV(10, 2),
		"dgefa":   programs.DGEFA(12),
		"smooth":  programs.Smooth(24, 2),
		// APPSP-2D exercises Redistribute (and its barrier crash-check
		// site) plus skipped hoisted requirements, which the other
		// programs never hit.
		"appsp2d": programs.APPSP(6, 6, 6, 1, true),
		// The reduce-sweep kernels run privatized under the default auto
		// mode: crashes and restores land while per-processor partial
		// accumulators hold in-flight contributions, so a checkpoint that
		// failed to snapshot the partial tables (or a restore that failed
		// to rearm them) diverges here.
		"histogram": programs.Histogram(16384, 64, 3),
		"dotsweep":  programs.DotSweep(512, 24),
		// The one program with a lastprivate copy-out at a loop exit.
		"lastprivate": lastPrivate,
	}
	for progName, src := range progs {
		prog := compile(t, src, 4, core.DefaultOptions())
		clean, err := sim.Run(prog, sim.Config{})
		if err != nil {
			t.Fatalf("%s: clean sim: %v", progName, err)
		}
		for planName, d := range chaosConfigs(clean.Time) {
			t.Run(progName+"/"+planName, func(t *testing.T) {
				d.Trace = &trace.Options{}
				// Keep injected slowdown delays test-sized.
				rep, err := diff(context.Background(), prog, d, hooks{delayUnit: 50 * time.Microsecond})
				if err != nil {
					t.Fatalf("differ: %v", err)
				}
				if !rep.Match() {
					t.Fatal(rep.String())
				}
				hasCrash := d.Fault.Active() && len(d.Fault.Crashes) > 0
				if hasCrash {
					if rep.Sim.Stats.Crashes == 0 {
						t.Fatalf("scheduled crash never fired (sim time %v)", rep.Sim.Time)
					}
					if rep.Exec.Restarts == 0 {
						t.Fatal("exec recovered no coordinated restart for the scheduled crash")
					}
				}
				// Only the pure checkpoint plan promises a checkpoint
				// deterministically: crashes reset the interval clock, so
				// sparse loop boundaries can legitimately yield none (the
				// differ already proved both backends agree on the count).
				if planName == "checkpoint" && rep.Sim.Stats.Checkpoints == 0 {
					t.Fatal("checkpoint interval elapsed but no checkpoint was taken")
				}
				// The privatized reduce kernels move merge hops and
				// almost nothing else, so a fractional loss/dup rate
				// over a handful of real sends can legitimately touch
				// zero of them; only demand hits where the program
				// generates real traffic volume. (The differ above
				// already proved both backends agree on the counters
				// either way.)
				lowTraffic := rep.Sim.Stats.Messages < 64
				if d.Fault.Active() && d.Fault.LossRate > 0 && rep.Exec.WireDrops == 0 && !lowTraffic {
					t.Fatal("loss plan dropped no real transmissions")
				}
				if d.Fault.Active() && d.Fault.DupRate > 0 && rep.Exec.WireDuplicates == 0 && !lowTraffic {
					t.Fatal("dup plan duplicated no real transmissions")
				}
			})
		}
	}
}

// TestChaosReproducible: the same seeded plan twice gives identical wire
// activity and results — the reproducibility the seed promises.
func TestChaosReproducible(t *testing.T) {
	prog := compile(t, programs.DGEFA(12), 4, core.DefaultOptions())
	cfg := Config{Fault: &fault.Plan{Seed: 42, LossRate: 0.25, DupRate: 0.1}}
	a, err := Run(context.Background(), prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.WireDrops != b.WireDrops || a.WireDuplicates != b.WireDuplicates {
		t.Fatalf("seeded wire activity not reproducible: %d/%d drops, %d/%d dups",
			a.WireDrops, b.WireDrops, a.WireDuplicates, b.WireDuplicates)
	}
	for name, x := range a.Scalars {
		if b.Scalars[name] != x {
			t.Fatalf("scalar %s differs across identical seeded runs", name)
		}
	}
}

// TestPanicHeal: a worker goroutine that panics mid-protocol dies for real;
// the run-level heal must detect the death, restore every worker from the
// last complete checkpoint generation, refetch, and finish with the memory of
// a fault-free run, bit for bit — the death interrupts execution, not
// arithmetic.
func TestPanicHeal(t *testing.T) {
	prog := compile(t, programs.DGEFA(12), 4, core.DefaultOptions())
	clean, err := sim.Run(prog, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var ticks atomic.Int32 // proc 1's, across attempts
	hk := hooks{tick: func(proc int) error {
		if proc == 1 && ticks.Add(1) == 40 {
			panic("injected worker death")
		}
		return nil
	}}
	res, err := run(context.Background(), prog, Config{CheckpointInterval: clean.Time / 6}, hk)
	if err != nil {
		t.Fatalf("healed run failed: %v", err)
	}
	if res.HardRestarts < 1 {
		t.Fatal("the panic never triggered a run-level heal")
	}
	ref, err := Run(context.Background(), prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range ref.Scalars {
		if got := res.Scalars[name]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("scalar %s after heal: got %v, want %v", name, got, want)
		}
	}
	for name, want := range ref.Arrays {
		got := res.Arrays[name]
		if len(got) != len(want) {
			t.Fatalf("array %s after heal: %d elements, want %d", name, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("array %s[%d] after heal: got %v, want %v", name, i, got[i], want[i])
			}
		}
	}
}

// TestWatchdogDelayRecovers (satellite): an injected slowdown below the
// stall threshold parks real workers on the wire but must recover cleanly
// and still produce fault-free-identical results.
func TestWatchdogDelayRecovers(t *testing.T) {
	prog := compile(t, programs.Figures["figure1"], 4, core.DefaultOptions())
	res, err := run(context.Background(), prog, Config{
		Fault:        &fault.Plan{Seed: 2, Slowdowns: []fault.Slowdown{{Proc: 0, Factor: 4}}},
		StallTimeout: 2 * time.Second,
	}, hooks{delayUnit: time.Millisecond})
	if err != nil {
		t.Fatalf("sub-threshold delay did not recover: %v", err)
	}
	ref, err := Run(context.Background(), prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range ref.Scalars {
		if got := res.Scalars[name]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("scalar %s under slowdown: got %v, want %v", name, got, want)
		}
	}
}

// TestWatchdogNamesDelayedSend (satellite): a delay far beyond the stall
// threshold must surface as a StallError naming the blocked send, not hang
// and not heal (healing disabled so the error reaches the caller).
func TestWatchdogNamesDelayedSend(t *testing.T) {
	prog := compile(t, programs.Figures["figure1"], 4, core.DefaultOptions())
	_, err := run(context.Background(), prog, Config{
		Fault:        &fault.Plan{Seed: 2, Slowdowns: []fault.Slowdown{{Proc: 0, Factor: 1e6}}},
		StallTimeout: 200 * time.Millisecond,
		MaxRestarts:  -1,
	}, hooks{delayUnit: time.Millisecond})
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("expected StallError from an over-threshold delay, got %v", err)
	}
	found := false
	for _, op := range se.Blocked {
		if op.Op == "send" {
			found = true
		}
	}
	if !found {
		t.Fatalf("stall report does not name the blocked send: %v", se)
	}
}
