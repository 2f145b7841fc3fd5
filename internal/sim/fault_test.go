package sim

import (
	"testing"

	"phpf/internal/core"
	"phpf/internal/fault"
	"phpf/internal/parser"
	"phpf/internal/programs"
	"phpf/internal/spmd"
	"phpf/internal/trace"
)

// mustAnalyze compiles src down to an SPMD program with default options.
func mustAnalyze(t *testing.T, src string, nprocs int) *spmd.Program {
	t.Helper()
	ap, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cres, err := core.BuildAndAnalyze(ap, nprocs, core.DefaultOptions())
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return spmd.Generate(cres)
}

// faultSrc is a small paper-style kernel: a privatized scalar x whose
// mapping differs across strategies (aligned with a(i) under the selected
// algorithm, replicated under the naive one) over a block-distributed array.
const faultSrc = `
program t
parameter n = 64
real a(n), b(n)
real x
integer i, iter
!hpf$ align b(i) with a(i)
!hpf$ distribute (block) :: a
do iter = 1, 6
  do i = 2, n
    x = b(i-1)
    a(i) = x + 1.0
  end do
  do i = 1, n
    b(i) = a(i) * 0.5
  end do
end do
end
`

// TestZeroFaultIdentity: an all-zero fault plan and a zero checkpoint
// interval reproduce the fault-free run bit for bit (pay-for-what-you-use).
func TestZeroFaultIdentity(t *testing.T) {
	opts := core.DefaultOptions()
	base := runErr(t, faultSrc, 8, opts, Config{})
	faulted := runErr(t, faultSrc, 8, opts, Config{
		Fault: &fault.Plan{Seed: 99, LossRate: 0, DupRate: 0},
	})
	if base.Time != faulted.Time {
		t.Errorf("time diverged: %v vs %v", base.Time, faulted.Time)
	}
	if base.Stats != faulted.Stats {
		t.Errorf("stats diverged:\n%+v\n%+v", base.Stats, faulted.Stats)
	}
}

// TestLossDeterministic: with a fixed seed, lossy runs are bit-identical
// across invocations; a different seed changes the schedule.
func TestLossDeterministic(t *testing.T) {
	opts := core.DefaultOptions()
	cfg := Config{Fault: &fault.Plan{Seed: 42, LossRate: 0.05}}
	a := runErr(t, faultSrc, 8, opts, cfg)
	b := runErr(t, faultSrc, 8, opts, cfg)
	if a.Time != b.Time || a.Stats != b.Stats {
		t.Fatalf("same seed diverged: %v/%v vs %v/%v", a.Time, a.Stats, b.Time, b.Stats)
	}
	if a.Stats.Retransmits == 0 {
		t.Fatal("5% loss produced no retransmits")
	}
	c := runErr(t, faultSrc, 8, opts, Config{Fault: &fault.Plan{Seed: 43, LossRate: 0.05}})
	if c.Stats.Retransmits == a.Stats.Retransmits && c.Time == a.Time {
		t.Error("different seeds produced identical fault schedules (suspicious)")
	}
}

// TestLossSlowsRun: retransmissions cost time.
func TestLossSlowsRun(t *testing.T) {
	opts := core.DefaultOptions()
	base := runErr(t, faultSrc, 8, opts, Config{})
	lossy := runErr(t, faultSrc, 8, opts, Config{Fault: &fault.Plan{Seed: 1, LossRate: 0.2}})
	if !(lossy.Time > base.Time) {
		t.Errorf("lossy run not slower: %v vs %v", lossy.Time, base.Time)
	}
	// Values are unaffected: faults perturb time, not semantics.
	for name, arr := range base.Arrays {
		approxSlice(t, lossy.Arrays[name], arr, name)
	}
}

// TestSlowdownIncreasesTime: a slowed processor stretches the run.
func TestSlowdownIncreasesTime(t *testing.T) {
	opts := core.DefaultOptions()
	base := runErr(t, faultSrc, 8, opts, Config{})
	slow := runErr(t, faultSrc, 8, opts, Config{Fault: &fault.Plan{
		Slowdowns: []fault.Slowdown{{Proc: 3, Factor: 4}},
	}})
	if !(slow.Time > base.Time) {
		t.Errorf("slowdown did not slow the run: %v vs %v", slow.Time, base.Time)
	}
}

// TestCrashCheckpointRecovery: a crash is recovered exactly once, the run
// still completes with correct values, checkpoints are taken, and recovery
// refetches the crashed processor's array partition.
func TestCrashCheckpointRecovery(t *testing.T) {
	opts := core.DefaultOptions()
	base := runErr(t, faultSrc, 8, opts, Config{})
	crashed := runErr(t, faultSrc, 8, opts, Config{
		Fault:              &fault.Plan{Crashes: []fault.Crash{{Proc: 2, At: base.Time / 2}}},
		CheckpointInterval: base.Time / 8,
	})
	if crashed.Stats.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", crashed.Stats.Crashes)
	}
	if crashed.Stats.Checkpoints == 0 {
		t.Error("no checkpoints were taken")
	}
	if crashed.Stats.RecoveryBytes == 0 {
		t.Error("recovery of a block-distributed array should refetch its partition")
	}
	if !(crashed.Time > base.Time) {
		t.Errorf("crash+recovery not slower: %v vs %v", crashed.Time, base.Time)
	}
	for name, arr := range base.Arrays {
		approxSlice(t, crashed.Arrays[name], arr, name)
	}
}

// TestRecoveryBytesReplicationVsAlignment: the robustness consequence of the
// paper's mapping choice — a replicated privatized scalar needs no recovery
// communication after a crash, while an aligned one must be refetched, so
// the replication strategy recovers strictly fewer bytes on the same
// program, crash, and checkpoint schedule.
func TestRecoveryBytesReplicationVsAlignment(t *testing.T) {
	crash := func(opts core.Options) *Result {
		return runErr(t, faultSrc, 8, opts, Config{
			Fault: &fault.Plan{Crashes: []fault.Crash{{Proc: 1, At: 0}}},
		})
	}
	repl := core.DefaultOptions()
	repl.Scalars = core.ScalarsReplicated
	repl.AlignReductions = false
	aligned := core.DefaultOptions() // selected alignment

	r := crash(repl)
	a := crash(aligned)
	if r.Stats.Crashes != 1 || a.Stats.Crashes != 1 {
		t.Fatalf("both runs must crash once: %d, %d", r.Stats.Crashes, a.Stats.Crashes)
	}
	if !(r.Stats.RecoveryBytes < a.Stats.RecoveryBytes) {
		t.Errorf("replication should recover strictly fewer bytes: repl=%d aligned=%d",
			r.Stats.RecoveryBytes, a.Stats.RecoveryBytes)
	}
}

// TestFaultConfigValidation: bad plans and out-of-range processors are
// rejected with descriptive errors instead of corrupting the run.
func TestFaultConfigValidation(t *testing.T) {
	ap := mustAnalyze(t, faultSrc, 8)
	cases := []Config{
		{Fault: &fault.Plan{LossRate: 1.5}},
		{Fault: &fault.Plan{Crashes: []fault.Crash{{Proc: 64, At: 1}}}},
		{Fault: &fault.Plan{Slowdowns: []fault.Slowdown{{Proc: 64, Factor: 2}}}},
		{CheckpointInterval: -1},
	}
	for i, cfg := range cases {
		if _, err := Run(ap, cfg); err == nil {
			t.Errorf("case %d: invalid fault config accepted", i)
		}
	}
}

// TestFaultEventsMatchStats: every fault the machine counts is an event the
// trace shows — a retransmission of a point-to-point message, of a shift or
// of a collective's constituent, a duplicate, a crash — so the trace's Fault
// total equals the Stats', on programs of every communication class.
func TestFaultEventsMatchStats(t *testing.T) {
	var crashes int64
	for _, k := range []struct {
		name, src string
	}{
		{"tomcatv", programs.TOMCATV(17, 2)},
		{"smooth", programs.Smooth(16, 2)},
		{"dgefa", programs.DGEFA(16)},
		{"appsp-2d", programs.APPSP(6, 6, 6, 1, true)},
		{"histogram", programs.Histogram(32, 8, 2)},
	} {
		p := mustAnalyze(t, k.src, 4)
		full, err := Run(p, Config{})
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		got, err := Run(p, Config{
			Fault: &fault.Plan{Seed: 7, LossRate: 0.2, DupRate: 0.2,
				Crashes: []fault.Crash{{Proc: 1, At: full.Time / 2}}},
			CheckpointInterval: full.Time / 8,
			Trace:              &trace.Options{},
		})
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		s := got.Stats
		if s.Retransmits == 0 {
			t.Errorf("%s: %s (the plan is broken)", k.name, s.FaultString())
		}
		crashes += s.Crashes
		if events := got.Trace.KindCount(trace.Fault); events != s.Retransmits+s.Duplicates+s.Crashes {
			t.Errorf("%s: %d fault events, want %d retransmits + %d duplicates + %d crashes",
				k.name, events, s.Retransmits, s.Duplicates, s.Crashes)
		}
	}
	if crashes == 0 {
		t.Error("no crash fired in any program (the plan is broken)")
	}
}
