// Command phpfc is the compiler driver: it parses and analyzes a mini-HPF
// program and prints the mapping decisions, the communication plan, and the
// generated SPMD form.
//
// Usage:
//
//	phpfc [-p procs] [-opt naive|producer|selected] [-dump mapping|comm|spmd|all] file.f
//	phpfc -figure figure1          # analyze one of the paper's figures
//	phpfc -trace file.f            # print the per-pass compile profile
//	phpfc -dump-after=ssa file.f   # print the unit snapshot after a pass
//	phpfc -verify file.f           # run the IR/SSA/mapping verifier
//	phpfc -reduce auto file.f      # print the reduction plan under a runtime strategy
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"phpf"
)

func main() {
	procs := flag.Int("p", 16, "number of processors")
	level := flag.String("opt", "selected", "optimization level: naive, producer, selected")
	dump := flag.String("dump", "all", "what to print: mapping, comm, spmd, labels, all")
	figure := flag.String("figure", "", "analyze a paper figure instead of a file (figure1, figure2, figure4, figure5, figure6, figure7)")
	trace := flag.Bool("trace", false, "print the per-pass compile profile (wall time, diagnostics, re-runs)")
	passes := strings.Join(phpf.PassNames(), ", ")
	dumpAfter := flag.String("dump-after", "", "print the compilation unit snapshot after the named pass ("+passes+")")
	verify := flag.Bool("verify", false, "run the IR/SSA/mapping verifier between passes")
	privatize := flag.String("privatize", "", "privatization mode: directives, infer (default), infer-strict")
	explainPriv := flag.Bool("explain-priv", false, "print the per-variable privatization decisions with reasons")
	reduce := flag.String("reduce", "", "print the reduction plan under this runtime strategy: auto, collective, privatize")
	flag.Parse()

	var source string
	switch {
	case *figure != "":
		s, ok := phpf.FigureSource(*figure)
		if !ok {
			fmt.Fprintf(os.Stderr, "phpfc: unknown figure %q; available: %v\n", *figure, phpf.FigureNames())
			os.Exit(2)
		}
		source = s
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "phpfc: %v\n", err)
			os.Exit(1)
		}
		source = string(data)
	default:
		fmt.Fprintln(os.Stderr, "usage: phpfc [-p procs] [-opt level] [-dump what] file.f | -figure name")
		os.Exit(2)
	}

	opts, err := phpf.OptionsByName(*level, *privatize)
	if err != nil {
		fmt.Fprintf(os.Stderr, "phpfc: %v\n", err)
		os.Exit(2)
	}
	opts.Verify = opts.Verify || *verify
	opts.DumpAfter = *dumpAfter

	c, err := phpf.Compile(source, *procs, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "phpfc: %v\n", err)
		os.Exit(1)
	}
	for _, d := range c.Diags() {
		if d.Severity >= phpf.SeverityWarning {
			fmt.Fprintf(os.Stderr, "phpfc: %s\n", d)
		}
	}
	if *dumpAfter != "" {
		snap, ok := c.Profile().Dumps[*dumpAfter]
		if !ok {
			fmt.Fprintf(os.Stderr, "phpfc: no pass named %q in the pipeline (%s)\n", *dumpAfter, passes)
			os.Exit(2)
		}
		fmt.Printf("=== unit after %s ===\n", *dumpAfter)
		fmt.Print(snap)
		return
	}
	if *trace {
		fmt.Println("=== compile profile ===")
		fmt.Print(c.Profile().String())
		return
	}
	if *explainPriv {
		fmt.Println("=== privatization decisions ===")
		fmt.Print(c.ExplainPriv())
		return
	}
	if *reduce != "" {
		mode, err := phpf.ParseReduceMode(*reduce)
		if err != nil {
			fmt.Fprintf(os.Stderr, "phpfc: %v\n", err)
			os.Exit(2)
		}
		fmt.Println("=== reduction plan ===")
		fmt.Print(c.ReducePlanReport(mode))
		return
	}
	if *dump == "mapping" || *dump == "all" {
		fmt.Println("=== mapping decisions ===")
		fmt.Print(c.MappingReport())
	}
	if *dump == "comm" || *dump == "all" {
		fmt.Println("=== communication plan ===")
		fmt.Print(c.CommReport())
	}
	if *dump == "spmd" || *dump == "all" {
		fmt.Println("=== SPMD program ===")
		fmt.Print(c.SPMD.DumpSkips())
	}
	if *dump == "labels" {
		// The statement-label table trace events reference (phpfrun
		// -trace-out/-trace-summary attributes activity to these IDs).
		fmt.Println("=== statement labels ===")
		fmt.Print(c.FormatStmtLabels())
	}
}
