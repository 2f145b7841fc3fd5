// Command phpfrun compiles a mini-HPF program and executes it on one of the
// two backends behind the unified phpf.Backend API, reporting execution time
// and communication statistics.
//
// Usage:
//
//	phpfrun [-p procs] [-opt naive|producer|selected] [-max seconds] file.f
//	phpfrun -tomcatv -n 129 -iters 5 -p 16
//	phpfrun -dgefa -n 128 -p 8
//	phpfrun -appsp -n 16 -iters 2 -2d -p 16
//
// Concurrent backend (one goroutine per simulated processor, real message
// passing, watchdog and panic containment: a worker panic or a stall of -stall
// ends the run with an error naming the processor or the blocked operations,
// with or without fault flags; -deadline is wall-clock):
//
//	phpfrun -tomcatv -p 16 -exec concurrent
//	phpfrun -dgefa -n 64 -p 8 -exec concurrent -deadline 30s -stall 5s
//
// Tracing (works on both backends; the simulator stamps simulated time, the
// concurrent executor wall time):
//
//	phpfrun -tomcatv -p 16 -trace-out run.json          # chrome://tracing / Perfetto
//	phpfrun -dgefa -n 64 -p 8 -exec concurrent -trace-summary
//
// Fault injection (deterministic for a fixed -fault-seed; works on both
// backends — both charge the same modeled faults in simulated time, and the
// concurrent backend makes scheduled crashes physical: coordinated
// checkpoint/restart of the worker goroutines, counted on the "restarts:"
// line):
//
//	phpfrun -dgefa -n 128 -p 8 -fault-seed 42 -loss-rate 0.01
//	phpfrun -tomcatv -p 16 -crash 3@0.5 -checkpoint-interval 0.1
//	phpfrun -tomcatv -p 16 -slowdown 2:1.5:0.1:0.4
//	phpfrun -dgefa -n 64 -p 8 -exec concurrent -fault-seed 42 -loss-rate 0.05
//	phpfrun -dgefa -n 64 -p 8 -exec concurrent -crash 1@0.2 -checkpoint-interval 0.05
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"phpf"
)

func main() {
	procs := flag.Int("p", 16, "number of processors")
	level := flag.String("opt", "selected", "optimization level: naive, producer, selected")
	maxSec := flag.Float64("max", 0, "abort after this much simulated time (0 = unlimited; simulator only)")
	profile := flag.Bool("profile", false, "print per-statement time attribution (simulator only)")
	tomcatv := flag.Bool("tomcatv", false, "run the built-in TOMCATV kernel")
	dgefa := flag.Bool("dgefa", false, "run the built-in DGEFA kernel")
	appsp := flag.Bool("appsp", false, "run the built-in APPSP kernel")
	twoD := flag.Bool("2d", false, "APPSP: use the 2-D distribution")
	n := flag.Int("n", 129, "built-in kernel size")
	iters := flag.Int("iters", 5, "built-in kernel iterations")
	privatize := flag.String("privatize", "", "privatization mode: directives, infer (default), infer-strict")
	reduce := flag.String("reduce", "", "runtime reduction strategy: auto (default), collective, privatize")

	backend := flag.String("exec", "sim", "execution backend: sim (sequential simulator) or concurrent (goroutine per processor)")
	deadline := flag.Duration("deadline", 0, "wall-clock deadline for the whole run (0 = none)")
	stallTimeout := flag.Duration("stall", 0, "concurrent backend: watchdog stall timeout (0 = default, negative = disabled)")

	traceOut := flag.String("trace-out", "", "record a runtime trace and write it as Chrome trace_event JSON (load in chrome://tracing or ui.perfetto.dev)")
	traceSummary := flag.Bool("trace-summary", false, "record a runtime trace and print the communication matrix and per-statement histogram")
	traceSample := flag.Int("trace-sample", 0, "keep 1 in N events in the trace ring (0/1 = all; matrix and counters stay exact)")

	faultSeed := flag.Int64("fault-seed", 0, "deterministic seed for fault draws (same seed = same schedule)")
	lossRate := flag.Float64("loss-rate", 0, "per-message loss probability in [0,1)")
	dupRate := flag.Float64("dup-rate", 0, "per-message duplication probability in [0,1)")
	slowdowns := flag.String("slowdown", "", "slowdown windows proc:factor[:start[:duration]],...")
	crashes := flag.String("crash", "", "fail-stop crashes proc@time,proc@time,...")
	ckptInterval := flag.Float64("checkpoint-interval", 0, "coordinated checkpoint every so many simulated seconds (0 = off)")
	flag.Parse()

	var source string
	switch {
	case *tomcatv:
		source = phpf.TOMCATVSource(*n, *iters)
	case *dgefa:
		source = phpf.DGEFASource(*n)
	case *appsp:
		source = phpf.APPSPSource(*n, *n, *n, *iters, *twoD)
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "phpfrun: %v\n", err)
			os.Exit(1)
		}
		source = string(data)
	default:
		fmt.Fprintln(os.Stderr, "usage: phpfrun [-p procs] [-opt level] file.f | -tomcatv|-dgefa|-appsp [-n size] [-iters k]")
		os.Exit(2)
	}

	opts, err := phpf.OptionsByName(*level, *privatize)
	reduceMode, rerr := phpf.ParseReduceMode(*reduce)
	if err := errors.Join(err, rerr); err != nil {
		fmt.Fprintf(os.Stderr, "phpfrun: %v\n", err)
		os.Exit(2)
	}

	plan := &phpf.FaultPlan{Seed: *faultSeed, LossRate: *lossRate, DupRate: *dupRate}
	if *slowdowns != "" {
		var err error
		if plan.Slowdowns, err = phpf.ParseSlowdowns(*slowdowns); err != nil {
			fmt.Fprintf(os.Stderr, "phpfrun: -slowdown: %v\n", err)
			os.Exit(2)
		}
	}
	if *crashes != "" {
		var err error
		if plan.Crashes, err = phpf.ParseCrashes(*crashes); err != nil {
			fmt.Fprintf(os.Stderr, "phpfrun: -crash: %v\n", err)
			os.Exit(2)
		}
	}
	if !plan.Active() {
		plan = nil
	}

	c, err := phpf.Compile(source, *procs, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "phpfrun: %v\n", err)
		os.Exit(1)
	}
	for _, d := range c.Diags() {
		// The diagnostic's own rendering carries its severity and position.
		if d.Severity >= phpf.SeverityWarning {
			fmt.Fprintf(os.Stderr, "phpfrun: %s\n", d)
		}
	}

	b, ok := phpf.BackendByName(*backend)
	if !ok {
		fmt.Fprintf(os.Stderr, "phpfrun: unknown backend %q (want sim or concurrent)\n", *backend)
		os.Exit(2)
	}

	// Every flag goes to the run as given: which of them the chosen backend
	// takes is Validate's answer (a coded E005), not this command's.
	run := phpf.RunOptions{
		MaxSeconds:         *maxSec,
		Profile:            *profile,
		Fault:              plan,
		CheckpointInterval: *ckptInterval,
		Reduce:             reduceMode,
		StallTimeout:       *stallTimeout,
	}
	if *traceOut != "" || *traceSummary {
		run.Trace = &phpf.TraceOptions{SampleEvery: *traceSample}
	}

	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	start := time.Now()
	rep, err := c.Execute(ctx, b, run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "phpfrun: %v\n", err)
		os.Exit(1)
	}

	status := ""
	if rep.Aborted {
		status = " (aborted at limit)"
	}
	if rep.Workers > 0 {
		fmt.Printf("processors:     %d (%d workers)\n", *procs, rep.Workers)
	} else {
		fmt.Printf("processors:     %d\n", *procs)
	}
	fmt.Printf("optimization:   %s\n", *level)
	fmt.Printf("backend:        %s\n", rep.Backend)
	fmt.Printf("simulated time: %.6f s%s (wall %.3fs)\n", rep.Time, status, time.Since(start).Seconds())
	fmt.Printf("communication:  %v\n", rep.Stats)
	if rep.TrafficMessages > 0 {
		fmt.Printf("real traffic:   %d channel messages\n", rep.TrafficMessages)
	}
	if fs := rep.Stats.FaultString(); fs != "" {
		fmt.Printf("faults:         %s\n", fs)
	}
	if rep.Restarts > 0 {
		fmt.Printf("restarts:       %d coordinated\n", rep.Restarts)
	}
	if *profile {
		fmt.Println("hot statements:")
		fmt.Print(phpf.FormatHotStatements(rep.HotStatements, 10))
	}
	if *traceSummary {
		fmt.Printf("trace:          %d events recorded (%d stored)\n", rep.Trace.Seen(), rep.Trace.Len())
		fmt.Print(rep.Trace.Summary())
		fmt.Println("communication matrix (planned messages, src rows -> dst columns):")
		fmt.Print(rep.Trace.CommMatrix().String())
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "phpfrun: %v\n", err)
			os.Exit(1)
		}
		werr := rep.Trace.WriteChromeTrace(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "phpfrun: -trace-out: %v\n", werr)
			os.Exit(1)
		}
		fmt.Printf("trace written:  %s (open in chrome://tracing or ui.perfetto.dev)\n", *traceOut)
	}
}
