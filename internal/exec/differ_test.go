package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"phpf/internal/core"
	"phpf/internal/diag"
	"phpf/internal/parser"
	"phpf/internal/programs"
	"phpf/internal/sim"
	"phpf/internal/spmd"
	"phpf/internal/trace"
)

// compile lowers a source program for nprocs processors.
func compile(t *testing.T, src string, nprocs int, opts core.Options) *spmd.Program {
	t.Helper()
	ap, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := core.BuildAndAnalyze(ap, nprocs, opts)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return spmd.Generate(res)
}

// The three mapping strategies of Table 1: no privatization (everything
// replicated), privatization with producer alignment, and the full selected
// alignment — the oracle must hold under every one of them.
func strategies() map[string]core.Options {
	naive := core.DefaultOptions()
	naive.Scalars = core.ScalarsReplicated
	naive.AlignReductions = false
	producer := core.DefaultOptions()
	producer.Scalars = core.ScalarsProducerAligned
	return map[string]core.Options{
		"naive":    naive,
		"producer": producer,
		"selected": core.DefaultOptions(),
	}
}

// lastPrivate reads a privatized scalar after its loop: under producer and
// selected alignment x lives on the owner of the iteration's element, and its
// final value is broadcast from the last iteration's owner at loop exit (the
// plan's copy-out) for y = x to read. y ends as 2n. The closing loop's shifted
// read gives the chaos plans a communication after the copy-out to land on (a
// crash fires where something was sent).
const lastPrivate = `
program lastprivate
parameter n = 16
real a(n), b(n), c(n)
real x, y
integer i
!hpf$ distribute (block) :: a, b, c
do i = 1, n
  a(i) = i
end do
do i = 1, n
  x = a(i)*2.0
  b(i) = x + 1.0
end do
y = x
do i = 2, n
  c(i) = a(i-1) + y
end do
end
`

// condMax is a conditional maximum, which only the collective reduction
// takes: its predicate reads the accumulator, so at each BLOCK boundary the
// running value must reach the new block's owner before the predicate runs,
// not only before the update it guards. s ends as 4.
const condMax = `
program condmax
parameter n = 16
real a(n), s
integer i
!hpf$ distribute (block) :: a
do i = 1, n
  a(i) = mod(i * 7, 5) * 1.0
end do
s = a(1)
do i = 1, n
  if (a(i) > s) then
    s = a(i)
  end if
end do
end
`

// oraclePrograms is the corpus the differential oracle sweeps: every figure
// example plus the three benchmark kernels at test-friendly sizes, the
// lastprivate copy-out no other program has, and the conditional maximum.
func oraclePrograms() map[string]string {
	out := map[string]string{
		"tomcatv":     programs.TOMCATV(10, 2),
		"dgefa":       programs.DGEFA(12),
		"appsp2d":     programs.APPSP(4, 4, 4, 1, true),
		"appsp1d":     programs.APPSP(4, 4, 4, 1, false),
		"smooth":      programs.Smooth(24, 2),
		"lastprivate": lastPrivate,
		"condmax":     condMax,
	}
	for name, src := range programs.Figures {
		out[name] = src
	}
	return out
}

// TestDifferMatrix is the differential oracle: for every program, every
// mapping strategy, several processor counts, and the default and the
// collective reduction, the concurrent executor's numeric results and
// communication statistics must equal the sequential simulator's bit-for-bit.
// Under the collective reduction a scalar reduction's accumulator is handed
// from processor to processor in iteration order, so a BLOCK boundary the
// hand-off misses shows as a wrong sum. Run under -race this also exercises
// the worker concurrency itself.
func TestDifferMatrix(t *testing.T) {
	for progName, src := range oraclePrograms() {
		for stratName, opts := range strategies() {
			for _, nprocs := range []int{1, 3, 4, 8} {
				for _, mode := range []core.ReduceMode{core.ReduceAuto, core.ReduceCollective} {
					name := fmt.Sprintf("%s/%s/p%d", progName, stratName, nprocs)
					if mode == core.ReduceCollective {
						name += "/collective"
					}
					t.Run(name, func(t *testing.T) { differCase(t, src, opts, nprocs, Config{Reduce: mode}) })
				}
			}
		}
	}
}

// differCase is one cell of TestDifferMatrix.
func differCase(t *testing.T, src string, opts core.Options, nprocs int, cfg Config) {
	prog := compile(t, src, nprocs, opts)
	// Some figure sources are analysis examples, not runnable programs (they
	// trap on an uninitialized subscript). The differential statement then is
	// that BOTH backends must reject them.
	if _, serr := sim.Run(prog, cfg); serr != nil {
		if _, eerr := Run(context.Background(), prog, cfg); eerr == nil {
			t.Fatalf("sim rejects (%v) but exec runs", serr)
		}
		return
	}
	rep, err := Diff(context.Background(), prog, cfg)
	if err != nil {
		t.Fatalf("differ: %v", err)
	}
	if !rep.Match() {
		t.Fatal(rep.String())
	}
	if rep.Exec.Workers != prog.NProcs() {
		t.Fatalf("ran %d workers, want %d", rep.Exec.Workers, prog.NProcs())
	}
}

// TestDifferRejectsFaultyConfig: the oracle refuses configurations whose
// simulator run would not be comparable. One configuration goes to both
// backends, so a conflicting pair cannot be written down; what is left to
// refuse is a simulator run cut short by MaxSeconds.
func TestDifferRejectsFaultyConfig(t *testing.T) {
	prog := compile(t, programs.Figures["figure1"], 4, core.DefaultOptions())
	_, err := Diff(context.Background(), prog, Config{MaxSeconds: 1e-9})
	var d *diag.Diagnostic
	if !errors.As(err, &d) || d.Code != diag.CodeConfig {
		t.Fatalf("expected a coded E005 for an aborted simulator run, got %v", err)
	}
}

// TestCopyOutOnBothBackends: the lastprivate final-value broadcast runs — on
// the simulator's accountant and over the executor's channels — and delivers:
// y reads the x of the last iteration on every processor, for one modeled
// broadcast, with the backends agreeing event for event, also when a crash
// rolls the run back over the loop exit.
func TestCopyOutOnBothBackends(t *testing.T) {
	for _, stratName := range []string{"producer", "selected"} {
		prog := compile(t, lastPrivate, 4, strategies()[stratName])
		if dump := prog.Dump(); !strings.Contains(dump, "[copy-out x from owner(") {
			t.Fatalf("%s: the plan has no copy-out of x:\n%s", stratName, dump)
		}
		clean, err := sim.Run(prog, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for planName, cfg := range map[string]Config{
			"clean": {},
			"crash": chaosConfigs(clean.Time)["crash"],
		} {
			t.Run(stratName+"/"+planName, func(t *testing.T) {
				cfg.Trace = &trace.Options{}
				rep, err := Diff(context.Background(), prog, cfg)
				if err != nil {
					t.Fatalf("differ: %v", err)
				}
				if !rep.Match() {
					t.Fatal(rep.String())
				}
				if planName == "crash" && (rep.Sim.Stats.Crashes == 0 || rep.Exec.Restarts == 0) {
					t.Fatalf("the crash never fired: %d modeled, %d restarts", rep.Sim.Stats.Crashes, rep.Exec.Restarts)
				}
				for _, r := range []*Result{rep.Sim, rep.Exec} {
					if y := r.Scalars["y"]; y != 32 {
						t.Errorf("%s: y = %v, want 32", r.Backend, y)
					}
					if n := r.Stats.Broadcasts; n != 1 {
						t.Errorf("%s: %d broadcasts, want the one copy-out", r.Backend, n)
					}
				}
			})
		}
	}
}
