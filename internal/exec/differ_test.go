package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"phpf/internal/core"
	"phpf/internal/diag"
	"phpf/internal/parser"
	"phpf/internal/programs"
	"phpf/internal/sim"
	"phpf/internal/spmd"
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

// oraclePrograms is the corpus the differential oracle sweeps: every figure
// example plus the three benchmark kernels at test-friendly sizes.
func oraclePrograms() map[string]string {
	out := map[string]string{
		"tomcatv": programs.TOMCATV(10, 2),
		"dgefa":   programs.DGEFA(12),
		"appsp2d": programs.APPSP(4, 4, 4, 1, true),
		"appsp1d": programs.APPSP(4, 4, 4, 1, false),
		"smooth":  programs.Smooth(24, 2),
	}
	for name, src := range programs.Figures {
		out[name] = src
	}
	return out
}

// TestDifferMatrix is the differential oracle: for every program, every
// mapping strategy, and several processor counts, the concurrent executor's
// numeric results and communication statistics must equal the sequential
// simulator's bit-for-bit. Run under -race this also exercises the worker
// concurrency itself.
func TestDifferMatrix(t *testing.T) {
	for progName, src := range oraclePrograms() {
		for stratName, opts := range strategies() {
			for _, nprocs := range []int{1, 4, 8} {
				src, opts, nprocs := src, opts, nprocs
				t.Run(fmt.Sprintf("%s/%s/p%d", progName, stratName, nprocs), func(t *testing.T) {
					prog := compile(t, src, nprocs, opts)
					// Some figure sources are analysis examples, not
					// runnable programs (they trap on an uninitialized
					// subscript). The differential statement then is that
					// BOTH backends must reject them.
					if _, serr := sim.Run(prog, sim.Config{}); serr != nil {
						if _, eerr := Run(context.Background(), prog, Config{}); eerr == nil {
							t.Fatalf("sim rejects (%v) but exec runs", serr)
						}
						return
					}
					rep, err := Diff(context.Background(), prog, Config{})
					if err != nil {
						t.Fatalf("differ: %v", err)
					}
					if !rep.Match() {
						t.Fatal(rep.String())
					}
					if rep.Exec.Workers != prog.NProcs() {
						t.Fatalf("ran %d workers, want %d", rep.Exec.Workers, prog.NProcs())
					}
				})
			}
		}
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
