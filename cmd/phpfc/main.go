// Command phpfc is the compiler driver: it parses and analyzes a mini-HPF
// program and prints the mapping decisions, the communication plan, and the
// generated SPMD form.
//
// Usage:
//
//	phpfc [-p procs] [-opt naive|producer|selected] [-dump mapping|comm|spmd|labels|priv|reduce|decisions|all] file.f
//	phpfc -figure figure1          # analyze one of the paper's figures
//	phpfc -trace file.f            # print the per-pass compile profile
//	phpfc -dump-after=ssa file.f   # print the unit snapshot after a pass
//	phpfc -verify file.f           # run the IR/SSA/mapping verifier
//	phpfc -dump decisions file.f   # the mapping decisions as JSON
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"phpf"
)

// dumps is the one table of -dump values: the flag's help text and its check
// both read it. "all" prints the entries marked all, in this order; an entry
// without a title prints its text alone.
var dumps = []struct {
	name, title string
	all         bool
	text        func(*phpf.Compiled) string
}{
	{"mapping", "mapping decisions", true, (*phpf.Compiled).MappingReport},
	{"comm", "communication plan", true, (*phpf.Compiled).CommReport},
	{"spmd", "SPMD program", true, func(c *phpf.Compiled) string { return c.SPMD.DumpSkips() }},
	// The statement-label table trace events reference (phpfrun
	// -trace-out/-trace-summary attributes activity to these IDs).
	{"labels", "statement labels", false, (*phpf.Compiled).FormatStmtLabels},
	{"priv", "privatization decisions", false, (*phpf.Compiled).ExplainPriv},
	{"reduce", "reduction plan", false, func(c *phpf.Compiled) string { return c.Decisions().ReduceText() }},
	{"decisions", "", false, func(c *phpf.Compiled) string { return string(c.Decisions().JSON()) }},
}

// dumpNames lists the -dump values: the table's, then "all".
func dumpNames() []string {
	var names []string
	for _, d := range dumps {
		names = append(names, d.name)
	}
	return append(names, "all")
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is phpfc with its arguments and output streams; it returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("phpfc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	procs := fs.Int("p", 16, "number of processors")
	level := fs.String("opt", "selected", "optimization level: naive, producer, selected")
	dump := fs.String("dump", "all", "what to print: "+strings.Join(dumpNames(), ", "))
	figure := fs.String("figure", "", "analyze a paper figure instead of a file (figure1, figure2, figure4, figure5, figure6, figure7)")
	trace := fs.Bool("trace", false, "print the per-pass compile profile (wall time, diagnostics, re-runs)")
	passes := strings.Join(phpf.PassNames(), ", ")
	dumpAfter := fs.String("dump-after", "", "print the compilation unit snapshot after the named pass ("+passes+")")
	verify := fs.Bool("verify", false, "run the IR/SSA/mapping verifier between passes")
	privatize := fs.String("privatize", "", "privatization mode: directives, infer (default), infer-strict")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	if !slices.Contains(dumpNames(), *dump) {
		fmt.Fprintf(stderr, "phpfc: unknown -dump %q; valid: %s\n", *dump, strings.Join(dumpNames(), ", "))
		return 2
	}

	var source string
	switch {
	case *figure != "":
		s, ok := phpf.FigureSource(*figure)
		if !ok {
			fmt.Fprintf(stderr, "phpfc: unknown figure %q; available: %v\n", *figure, phpf.FigureNames())
			return 2
		}
		source = s
	case fs.NArg() == 1:
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			fmt.Fprintf(stderr, "phpfc: %v\n", err)
			return 1
		}
		source = string(data)
	default:
		fmt.Fprintln(stderr, "usage: phpfc [-p procs] [-opt level] [-dump what] file.f | -figure name")
		return 2
	}

	opts, err := phpf.OptionsByName(*level, *privatize)
	if err != nil {
		fmt.Fprintf(stderr, "phpfc: %v\n", err)
		return 2
	}
	opts.Verify = opts.Verify || *verify
	opts.DumpAfter = *dumpAfter

	c, err := phpf.Compile(source, *procs, opts)
	if err != nil {
		fmt.Fprintf(stderr, "phpfc: %v\n", err)
		return 1
	}
	for _, d := range c.Diags() {
		if d.Severity >= phpf.SeverityWarning {
			fmt.Fprintf(stderr, "phpfc: %s\n", d)
		}
	}
	if *dumpAfter != "" {
		snap, ok := c.Profile().Dumps[*dumpAfter]
		if !ok {
			fmt.Fprintf(stderr, "phpfc: no pass named %q in the pipeline (%s)\n", *dumpAfter, passes)
			return 2
		}
		fmt.Fprintf(stdout, "=== unit after %s ===\n%s", *dumpAfter, snap)
		return 0
	}
	if *trace {
		fmt.Fprintf(stdout, "=== compile profile ===\n%s", c.Profile())
		return 0
	}
	for _, d := range dumps {
		if *dump == d.name || *dump == "all" && d.all {
			if d.title != "" {
				fmt.Fprintf(stdout, "=== %s ===\n", d.title)
			}
			fmt.Fprint(stdout, d.text(c))
		}
	}
	return 0
}
