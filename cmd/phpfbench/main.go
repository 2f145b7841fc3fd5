// Command phpfbench regenerates the paper's evaluation tables (§5) on the
// simulated machine: Table 1 (TOMCATV under three scalar-mapping levels),
// Table 2 (DGEFA with and without reduction alignment), and Table 3 (APPSP
// under 1-D/2-D distributions with privatization toggles).
//
// Usage:
//
//	phpfbench                 # all tables at the default (scaled) sizes
//	phpfbench -table 1        # one table
//	phpfbench -large          # closer to the paper's sizes (slower)
//	phpfbench -faults         # loss-rate sweep over the three benchmarks
//	phpfbench -diff           # differential oracle: concurrent vs simulator
//	phpfbench -chaos          # seeded fault plans on both backends, oracle-checked
//	phpfbench -trace-summary  # communication matrix for every sweep point
//	phpfbench -reduce-sweep   # collective vs privatized commutative updates
//	phpfbench -reduce collective  # force a reduction strategy on the table runs
//
// Each sweep runs instead of the tables: naming two sweeps, or -table beside
// one, or a table other than 1, 2 or 3, exits 2.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"phpf"
	"phpf/internal/programs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is phpfbench with its arguments and output streams; it returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("phpfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.Int("table", 0, "which table to run (1, 2, 3; 0 = all)")
	large := fs.Bool("large", false, "use sizes closer to the paper's (slower)")
	maxSec := fs.Float64("max", 100, "per-run simulated-time abort threshold in seconds (the paper's '1 day' scaled to our problem sizes; 0 = unlimited)")
	faults := fs.Bool("faults", false, "run the fault sweep (loss rates x strategies x benchmarks) instead of the tables")
	faultSeed := fs.Int64("fault-seed", 1, "deterministic seed for the fault sweep")
	diff := fs.Bool("diff", false, "run the differential oracle (concurrent executor vs sequential simulator) instead of the tables")
	chaos := fs.Bool("chaos", false, "run the chaos sweep (seeded loss/dup/crash/checkpoint plans on the concurrent backend, crashes healed for real, oracle-checked against the simulator) instead of the tables")
	traceSummary := fs.Bool("trace-summary", false, "trace every sweep point (benchmark x strategy x procs) and print its communication matrix instead of the tables")
	privatize := fs.String("privatize", "", "privatization mode for the table runs: directives, infer (default), infer-strict")
	reduce := fs.String("reduce", "", "runtime reduction strategy for the table runs: auto (default), collective, privatize")
	reduceSweep := fs.Bool("reduce-sweep", false, "run the reduce sweep (collective vs privatized commutative updates on the histogram and dot-product kernels) instead of the tables")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "phpfbench: "+format+"\n", args...)
		return 2
	}
	// One run at a time: a sweep, or the tables -table names.
	var sweeps []string
	tableSet := false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "reduce-sweep", "trace-summary", "chaos", "diff", "faults":
			if f.Value.String() == "true" {
				sweeps = append(sweeps, "-"+f.Name)
			}
		case "table":
			tableSet = true
		}
	})
	switch {
	case len(sweeps) > 1:
		return usage("%s and %s each select a sweep; give one", sweeps[0], sweeps[1])
	case *table < 0 || *table > 3:
		return usage("unknown -table %d; valid: 1, 2, 3 (0 = all)", *table)
	case tableSet && len(sweeps) == 1:
		return usage("-table selects the paper tables, %s a sweep instead; give one", sweeps[0])
	}

	fail := func(err error) int {
		fmt.Fprintf(stderr, "phpfbench: %v\n", err)
		return 1
	}
	// -privatize and -reduce rewrite every column of the paper tables. Each
	// column's options start from the inferring default, which is also what an
	// empty -privatize resolves to, so the rewrite needs no "was it set" case.
	privOpts, err := phpf.OptionsByName("", *privatize)
	reduceMode, rerr := phpf.ParseReduceMode(*reduce)
	if err := errors.Join(err, rerr); err != nil {
		return usage("%v", err)
	}
	printTable := func(t *phpf.Table) error {
		for i := range t.Cols {
			t.Cols[i].Opts.Privatization = privOpts.Privatization
			t.Cols[i].Run.Reduce = reduceMode
		}
		err := t.Run()
		if err == nil {
			fmt.Fprintln(stdout, t)
		}
		return err
	}

	procs := []int{1, 2, 4, 8, 16}

	tomN, tomIter := 129, 5
	dgeN := 128
	apN, apIter := 16, 3
	if *large {
		tomN, tomIter = 257, 10
		dgeN = 256
		apN, apIter = 24, 5
	}

	// The -diff and -trace-summary sweeps use reduced sizes: replicated
	// concurrent execution costs roughly nprocs times the sequential
	// simulator per run, and trace matrices are easiest to read when the
	// event counts stay small.
	dTomN, dTomIter := 65, 2
	dDgeN := 64
	dApN, dApIter := 8, 1
	if *large {
		dTomN, dTomIter = tomN, tomIter
		dDgeN = dgeN
		dApN, dApIter = apN, apIter
	}
	sweepProgs := []phpf.DiffProgram{
		{Name: fmt.Sprintf("TOMCATV(n=%d,niter=%d)", dTomN, dTomIter), Source: programs.TOMCATV(dTomN, dTomIter)},
		{Name: fmt.Sprintf("DGEFA(n=%d)", dDgeN), Source: programs.DGEFA(dDgeN)},
		{Name: fmt.Sprintf("APPSP-1D(%d^3,niter=%d)", dApN, dApIter), Source: programs.APPSP(dApN, dApN, dApN, dApIter, false)},
		{Name: fmt.Sprintf("APPSP-2D(%d^3,niter=%d)", dApN, dApIter), Source: programs.APPSP(dApN, dApN, dApN, dApIter, true)},
	}

	if *reduceSweep {
		hn, hm, hiter := 256, 32, 4
		dn, dm := 48, 24
		if *large {
			hn, hm, hiter = 1024, 64, 8
			dn, dm = 128, 48
		}
		kernels := []phpf.DiffProgram{
			{Name: fmt.Sprintf("Histogram(n=%d,m=%d,niter=%d)", hn, hm, hiter), Source: programs.Histogram(hn, hm, hiter)},
			{Name: fmt.Sprintf("DotSweep(n=%d,m=%d)", dn, dm), Source: programs.DotSweep(dn, dm)},
		}
		t := phpf.ReduceSweep(kernels, procs, *maxSec)
		if err := t.Run(); err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, phpf.FormatReduceSweep(t))
		return 0
	}

	if *traceSummary {
		points, err := phpf.TraceSweep(context.Background(), sweepProgs, []int{4, 8}, *maxSec)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, phpf.FormatTraceSweep(points))
		return 0
	}

	if *chaos {
		// Chaos needs smaller programs still: each plan runs both backends,
		// the concurrent one with real checkpoint barriers and restores.
		chaosProgs := []phpf.DiffProgram{
			{Name: "TOMCATV(n=33,niter=2)", Source: programs.TOMCATV(33, 2)},
			{Name: "DGEFA(n=32)", Source: programs.DGEFA(32)},
			{Name: "APPSP-2D(6^3,niter=1)", Source: programs.APPSP(6, 6, 6, 1, true)},
		}
		rows, err := phpf.ChaosSweep(context.Background(), chaosProgs, 4, phpf.DefaultChaosPlans())
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, phpf.FormatChaosSweep(rows))
		for _, r := range rows {
			if !r.Match() {
				return fail(errors.New("chaos sweep found mismatches"))
			}
		}
		return 0
	}

	if *diff {
		rows, err := phpf.DiffSweep(context.Background(), sweepProgs, []int{1, 4, 8})
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, phpf.FormatDiffSweep(rows))
		for _, r := range rows {
			if !r.Match() {
				return fail(errors.New("differential oracle found mismatches"))
			}
		}
		return 0
	}

	if *faults {
		rates := []float64{0, 0.001, 0.01, 0.05}
		sweeps := []struct {
			title  string
			source string
			procs  int
		}{
			{fmt.Sprintf("TOMCATV (n=%d, niter=%d, p=8)", tomN, tomIter), programs.TOMCATV(tomN, tomIter), 8},
			{fmt.Sprintf("DGEFA (n=%d, p=8)", dgeN), programs.DGEFA(dgeN), 8},
			{fmt.Sprintf("APPSP (%dx%dx%d, niter=%d, 2-D, p=8)", apN, apN, apN, apIter), programs.APPSP(apN, apN, apN, apIter, true), 8},
		}
		for _, s := range sweeps {
			t := phpf.FaultSweep(s.title, s.source, s.procs, rates, *faultSeed, *maxSec)
			if err := t.Run(); err != nil {
				return fail(err)
			}
			fmt.Fprintln(stdout, t)
		}
		return 0
	}

	for i, t := range []*phpf.Table{
		phpf.Table1TOMCATV(tomN, tomIter, procs, *maxSec),
		phpf.Table2DGEFA(dgeN, procs[1:], *maxSec),
		phpf.Table3APPSP(apN, apN, apN, apIter, procs[1:], *maxSec),
	} {
		if *table != 0 && *table != i+1 {
			continue
		}
		if err := printTable(t); err != nil {
			return fail(err)
		}
	}
	return 0
}
