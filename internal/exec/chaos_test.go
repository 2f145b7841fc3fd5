package exec

import (
	"context"
	"errors"
	"math"
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
// concurrent executor must agree with the simulator under the same plan —
// bitwise on every scalar and array element, on all cost-model statistics
// including the fault counters, and on the per-class planned messages and the
// per-statement time of the traced run, whose concurrent trace holds only
// Send, Recv and Wait events.
// Includes mid-loop fail-stop crashes recovered via coordinated
// checkpoint/restart. Run under -race this is also the concurrency soak for
// the fault machinery.
func TestChaosMatrix(t *testing.T) {
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
				rep, err := diff(context.Background(), prog, d, hooks{})
				if err != nil {
					t.Fatalf("differ: %v", err)
				}
				if !rep.Match() {
					t.Fatal(rep.String())
				}
				onlyTraffic(t, rep.Exec.Trace)
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
			})
		}
	}
}

// TestChaosReproducible: the same seeded plan twice charges identical fault
// statistics and leaves identical memory — the reproducibility the seed
// promises, whatever the goroutine interleaving.
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
	if a.Stats.Retransmits == 0 {
		t.Fatal("seeded loss plan charged no retransmits")
	}
	if a.Stats != b.Stats {
		t.Fatalf("seeded fault statistics not reproducible:\n%v\n%v", a.Stats, b.Stats)
	}
	sameMemory(t, "second seeded run", b, a)
}

// sameMemory fails unless got's final scalars and arrays equal want's, bit
// for bit.
func sameMemory(t *testing.T, what string, got, want *Result) {
	t.Helper()
	for name, w := range want.Scalars {
		if g := got.Scalars[name]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("scalar %s after %s: got %v, want %v", name, what, g, w)
		}
	}
	for name, w := range want.Arrays {
		g := got.Arrays[name]
		if len(g) != len(w) {
			t.Fatalf("array %s after %s: %d elements, want %d", name, what, len(g), len(w))
		}
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("array %s[%d] after %s: got %v, want %v", name, i, what, g[i], w[i])
			}
		}
	}
}

// TestPanicInChaosMode: a worker goroutine that panics mid-protocol ends the
// run with its *WorkerError in chaos mode too, at the first occurrence. The
// simulator models no such death, so no retry of it could be checked against
// the simulator, and replicated execution would meet a panic that comes from a
// bug again.
func TestPanicInChaosMode(t *testing.T) {
	prog := compile(t, programs.DGEFA(12), 4, core.DefaultOptions())
	clean, err := sim.Run(prog, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var ticks, panics atomic.Int32 // proc 1's
	hk := hooks{tick: func(proc int) error {
		if proc == 1 && ticks.Add(1) == 40 {
			panics.Add(1)
			panic("injected worker death")
		}
		return nil
	}}
	_, err = run(context.Background(), prog, Config{CheckpointInterval: clean.Time / 6}, hk)
	var we *WorkerError
	if !errors.As(err, &we) || we.Proc != 1 {
		t.Fatalf("expected a *WorkerError for processor 1, got %T: %v", err, err)
	}
	if n := panics.Load(); n != 1 {
		t.Fatalf("the panicking hook fired %d times, want 1", n)
	}
}

// TestWatchdogDelayRecovers: a worker parked below the stall threshold — a
// few milliseconds at each of its first 20 ticks — does not trip the
// watchdog, and the run finishes with fault-free memory.
func TestWatchdogDelayRecovers(t *testing.T) {
	prog := compile(t, programs.Figures["figure1"], 4, core.DefaultOptions())
	var ticks atomic.Int32 // proc 0's
	hk := hooks{tick: func(proc int) error {
		if proc == 0 && ticks.Add(1) <= 20 {
			time.Sleep(3 * time.Millisecond)
		}
		return nil
	}}
	res, err := run(context.Background(), prog, Config{StallTimeout: 2 * time.Second}, hk)
	if err != nil {
		t.Fatalf("sub-threshold delay did not recover: %v", err)
	}
	ref, err := Run(context.Background(), prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sameMemory(t, "sub-threshold delay", res, ref)
}

// TestWatchdogNamesDelayedSend: a worker parked far beyond the stall
// threshold fills the one-slot mailboxes into it, and the run must surface a
// StallError naming a send blocked on that worker, not hang. In DGEFA the
// first pivot column's owner, processor 0, sends processor 1 the pivot
// magnitude, the pivot row and the column, one after the other, before it
// needs anything from it.
func TestWatchdogNamesDelayedSend(t *testing.T) {
	prog := compile(t, programs.DGEFA(12), 4, core.DefaultOptions())
	var parked atomic.Bool
	hk := hooks{mailboxDepth: 1, tick: func(proc int) error {
		if proc == 1 && parked.CompareAndSwap(false, true) {
			time.Sleep(time.Second)
		}
		return nil
	}}
	_, err := run(context.Background(), prog, Config{StallTimeout: 100 * time.Millisecond}, hk)
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("expected StallError from an over-threshold delay, got %v", err)
	}
	for _, op := range se.Blocked {
		if op.Op == "send" && op.Peer == 1 {
			return
		}
	}
	t.Fatalf("stall report does not name a send blocked on the parked worker: %v", se)
}
