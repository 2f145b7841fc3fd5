package phpf

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"phpf/internal/diag"
)

func compileSmooth(t *testing.T, nprocs int) *Compiled {
	t.Helper()
	c, err := Compile(SmoothSource(64, 2), nprocs, SelectedOptions())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBackendInterface runs the same program through both backends via the
// unified Execute API: both reports must agree on the modeled time and
// stats, and carry their backend-specific extras.
func TestBackendInterface(t *testing.T) {
	c := compileSmooth(t, 4)
	ctx := context.Background()

	var reports []*Report
	for _, name := range Backends() {
		b, ok := BackendByName(name)
		if !ok {
			t.Fatalf("BackendByName(%q) failed", name)
		}
		if b.Name() != name {
			t.Fatalf("backend %q reports name %q", name, b.Name())
		}
		rep, err := c.Execute(ctx, b, RunOptions{Trace: &TraceOptions{}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Backend != name {
			t.Errorf("report names backend %q, want %q", rep.Backend, name)
		}
		if !rep.Trace.Enabled() {
			t.Errorf("%s: no trace recorded", name)
		}
		reports = append(reports, rep)
	}

	simRep, execRep := reports[0], reports[1]
	if simRep.Time != execRep.Time {
		t.Errorf("modeled time: sim %v, concurrent %v", simRep.Time, execRep.Time)
	}
	if simRep.Stats != execRep.Stats {
		t.Errorf("stats: sim %+v, concurrent %+v", simRep.Stats, execRep.Stats)
	}
	if execRep.Workers != 4 {
		t.Errorf("concurrent report has %d workers, want 4", execRep.Workers)
	}
	if execRep.TrafficMessages == 0 {
		t.Error("concurrent report counted no real traffic")
	}
	if simRep.Workers != 0 || simRep.TrafficMessages != 0 {
		t.Error("simulator report carries concurrent-only fields")
	}
}

// TestSimulatorContextCancel checks the simulator honors a cancelled
// context: the new entry point must abort mid-run with the context's error.
func TestSimulatorContextCancel(t *testing.T) {
	c, err := Compile(TOMCATVSource(129, 50), 8, SelectedOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err = c.Execute(ctx, Simulator(), RunOptions{})
	if err == nil {
		t.Fatal("expected a cancellation error")
	}
	if ctx.Err() == nil || !strings.Contains(err.Error(), ctx.Err().Error()) {
		t.Fatalf("error %v does not carry the context error %v", err, ctx.Err())
	}
}

// TestBackendRejectsForeignOptions checks each backend rejects the other's
// knobs with a coded E005 diagnostic instead of silently ignoring them.
func TestBackendRejectsForeignOptions(t *testing.T) {
	c := compileSmooth(t, 4)
	ctx := context.Background()
	cases := []struct {
		name string
		b    Backend
		opts RunOptions
	}{
		{"sim-stall", Simulator(), RunOptions{StallTimeout: time.Second}},
		{"concurrent-max", Concurrent(), RunOptions{MaxSeconds: 1}},
		{"concurrent-profile", Concurrent(), RunOptions{Profile: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Execute(ctx, tc.b, tc.opts)
			if err == nil {
				t.Fatal("expected an E005 configuration error")
			}
			if !strings.Contains(err.Error(), "E005") {
				t.Fatalf("error %v is not coded E005", err)
			}
		})
	}
}

// TestInvalidConfigIsCoded: a configuration that cannot describe a run is a
// coded E005 *diag.Diagnostic from Execute on either backend and from Diff —
// never a bare error string from inside a backend, and never accepted.
func TestInvalidConfigIsCoded(t *testing.T) {
	c := compileSmooth(t, 4)
	ctx := context.Background()
	cases := []struct {
		name string
		opts RunOptions
	}{
		{"negative MaxSeconds", RunOptions{MaxSeconds: -1}},
		{"negative CheckpointInterval", RunOptions{CheckpointInterval: -1}},
		{"NaN CheckpointInterval", RunOptions{CheckpointInterval: math.NaN()}},
		{"crash on processor 9 of 4", RunOptions{Fault: &FaultPlan{Crashes: []Crash{{Proc: 9, At: 0.001}}}}},
		{"slowdown on processor 9 of 4", RunOptions{Fault: &FaultPlan{Slowdowns: []Slowdown{{Proc: 9, Factor: 2}}}}},
		{"negative MaxCells", RunOptions{MaxCells: -1}},
		{"unknown Reduce", RunOptions{Reduce: ReduceMode(99)}},
	}
	for _, tc := range cases {
		runs := map[string]func() error{
			"diff": func() error { _, err := c.Diff(ctx, tc.opts); return err },
		}
		for _, b := range []Backend{Simulator(), Concurrent()} {
			runs[b.Name()] = func() error { _, err := c.Execute(ctx, b, tc.opts); return err }
		}
		for on, run := range runs {
			t.Run(tc.name+"/"+on, func(t *testing.T) {
				var d *diag.Diagnostic
				if err := run(); !errors.As(err, &d) || d.Code != diag.CodeConfig {
					t.Fatalf("got %T %v, want a coded E005 *diag.Diagnostic", err, err)
				}
			})
		}
	}
}

// TestConcurrentFaultOptions: the concurrent backend accepts fault plans and
// checkpoint intervals (they were simulator-only before wall-clock fault
// tolerance landed) and charges the plan's modeled faults.
func TestConcurrentFaultOptions(t *testing.T) {
	c := compileSmooth(t, 4)
	ctx := context.Background()
	rep, err := c.Execute(ctx, Concurrent(), RunOptions{
		Fault: &FaultPlan{LossRate: 0.2, Seed: 1},
	})
	if err != nil {
		t.Fatalf("concurrent run with fault plan: %v", err)
	}
	if rep.Stats.Retransmits == 0 {
		t.Error("seeded loss plan charged no modeled retransmits")
	}
	if _, err := c.Execute(ctx, Concurrent(), RunOptions{CheckpointInterval: 0.1}); err != nil {
		t.Fatalf("concurrent run with checkpointing: %v", err)
	}
}

// TestReduceModeValidation: the Reduce knob is range-checked with a coded
// E005 diagnostic, parses from its CLI names, and ReducePrivatize fails a
// program whose recognized reduction is collective-only.
func TestReduceModeValidation(t *testing.T) {
	if err := (RunOptions{Reduce: ReduceMode(99)}).Validate(0, ""); err == nil || !strings.Contains(err.Error(), "E005") {
		t.Fatalf("Reduce=99: got %v, want a coded E005 diagnostic", err)
	}
	for _, tc := range []struct {
		name string
		want ReduceMode
	}{
		{"auto", ReduceAuto},
		{"collective", ReduceCollective},
		{"privatize", ReducePrivatize},
	} {
		got, err := ParseReduceMode(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("ParseReduceMode(%q) = %v, %v", tc.name, got, err)
		}
	}
	if _, err := ParseReduceMode("bogus"); err == nil || !strings.Contains(err.Error(), "E005") {
		t.Errorf("ParseReduceMode(bogus): got %v, want a coded E005 diagnostic", err)
	}
	// maxloc (reduction value + index) has no private per-element merge; a
	// demanded privatization must fail loudly on both backends.
	src := `
program m
parameter n = 64
real a(n)
real best
integer i, loc
!hpf$ distribute (block) :: a
do i = 1, n
  a(i) = i * 1.0
end do
best = a(1)
loc = 1
do i = 2, n
  if (a(i) > best) then
    best = a(i)
    loc = i
  end if
end do
end
`
	c, err := Compile(src, 4, SelectedOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, b := range []Backend{Simulator(), Concurrent()} {
		if _, err := c.Execute(ctx, b, RunOptions{Reduce: ReducePrivatize}); err == nil || !strings.Contains(err.Error(), "E005") {
			t.Errorf("%s reduce=privatize on maxloc: got %v, want a coded E005 diagnostic", b.Name(), err)
		}
		if _, err := c.Execute(ctx, b, RunOptions{Reduce: ReduceAuto}); err != nil {
			t.Errorf("%s reduce=auto on maxloc: %v", b.Name(), err)
		}
	}

	// DGEFA's pivot reductions (a conditional max and its maxloc companion)
	// never get a combine attached — the demand must be validated against
	// the reduce plan itself, not just the attached combines.
	d, err := Compile(DGEFASource(32), 4, SelectedOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Backend{Simulator(), Concurrent()} {
		if _, err := d.Execute(ctx, b, RunOptions{Reduce: ReducePrivatize}); err == nil || !strings.Contains(err.Error(), "E005") {
			t.Errorf("%s reduce=privatize on DGEFA: got %v, want a coded E005 diagnostic", b.Name(), err)
		}
		if _, err := d.Execute(ctx, b, RunOptions{Reduce: ReduceAuto}); err != nil {
			t.Errorf("%s reduce=auto on DGEFA: %v", b.Name(), err)
		}
	}
}

// TestDiffTraced runs the unified Diff entry with tracing: the oracle must
// match, and extend its comparison to the event level.
func TestDiffTraced(t *testing.T) {
	c := compileSmooth(t, 4)
	rep, err := c.Diff(context.Background(), RunOptions{Trace: &TraceOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Match() {
		t.Fatal(rep.String())
	}
	if !rep.Sim.Trace.Enabled() || !rep.Exec.Trace.Enabled() {
		t.Fatal("Diff with Trace set did not trace both backends")
	}
	if rep.Sim.Trace.CommMatrix().Total().Msgs == 0 {
		t.Error("sim trace matrix is empty for a communicating program")
	}
	// Faulted differential runs are supported (the same seeded plan goes to
	// both backends).
	rep, err = c.Diff(context.Background(), RunOptions{
		Fault:              &FaultPlan{LossRate: 0.1, Seed: 3},
		CheckpointInterval: 1,
	})
	if err != nil {
		t.Fatalf("faulted Diff: %v", err)
	}
	if !rep.Match() {
		t.Fatal(rep.String())
	}
}

// TestReduceStrategiesAgreeOnIntegers: an integer-valued sum is exact under
// any association, so the collective and privatized strategies must produce
// identical results (and the trace shows the strategy actually switched).
func TestReduceStrategiesAgreeOnIntegers(t *testing.T) {
	src := `
program s
parameter n = 128
real a(n)
real total
integer i
!hpf$ distribute (block) :: a
do i = 1, n
  a(i) = i * 1.0
end do
total = 0.0
do i = 1, n
  total = total + a(i)
end do
end
`
	c, err := Compile(src, 8, SelectedOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	coll, err := c.Execute(ctx, Simulator(), RunOptions{Reduce: ReduceCollective, Trace: &TraceOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	priv, err := c.Execute(ctx, Simulator(), RunOptions{Reduce: ReducePrivatize, Trace: &TraceOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(128*129) / 2
	if coll.Scalars["total"] != want || priv.Scalars["total"] != want {
		t.Errorf("total: collective %v, privatized %v, want %v",
			coll.Scalars["total"], priv.Scalars["total"], want)
	}
	if coll.Stats.Merges != 0 || coll.Stats.Reductions == 0 {
		t.Errorf("collective stats: merges=%d reductions=%d", coll.Stats.Merges, coll.Stats.Reductions)
	}
	if priv.Stats.Merges == 0 || priv.Stats.Reductions != 0 {
		t.Errorf("privatized stats: merges=%d reductions=%d", priv.Stats.Merges, priv.Stats.Reductions)
	}
	if priv.Trace.MergedCount() == 0 {
		t.Error("privatized trace recorded no merged partials")
	}
}

// TestGridRankCapEndToEnd drives a program whose directives imply a rank-8
// processor grid (above the cap that lets owner sets pack their coordinates)
// through the whole stack: the offending directives are skipped with W101
// diagnostics and the program still runs, replicated, on both backends.
func TestGridRankCapEndToEnd(t *testing.T) {
	const src = `
program t
real a(2,2,2,2,2,2,2,2)
!hpf$ processors p(2,2,2,2,2,2,2,2)
!hpf$ distribute (block,block,block,block,block,block,block,block) :: a
a(1,1,1,1,1,1,1,1) = 1.0
end
`
	c, err := Compile(src, 4, SelectedOptions())
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for _, d := range c.Diags() {
		if d.Code == "W101" && strings.Contains(d.Msg, "rank 8") {
			skipped++
		}
	}
	if skipped != 2 {
		t.Fatalf("want both rank-8 directives skipped with W101, got %d in %v", skipped, c.Diags())
	}
	for _, b := range []Backend{Simulator(), Concurrent()} {
		rep, err := c.Execute(context.Background(), b, RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		if got := rep.Arrays["a"][0]; got != 1 {
			t.Errorf("%s: a(1,...,1) = %v, want 1", b.Name(), got)
		}
	}
}
