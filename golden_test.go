package phpf

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phpf/internal/programs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden dump files")

// checkGolden holds got to the checked-in file at path byte for byte, or
// rewrites the file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -update .`): %v", err)
	}
	if got != string(want) {
		t.Errorf("output deviates from %s\n--- got ---\n%s--- want ---\n%s", path, got, string(want))
	}
}

// checkGoldenDump holds the -dump-after=pass snapshot of a paper figure to
// testdata/dumps/<figure>.<pass>.golden.
func checkGoldenDump(t *testing.T, figure, pass string) {
	t.Helper()
	src, ok := FigureSource(figure)
	if !ok {
		t.Fatalf("unknown figure %s", figure)
	}
	opts := SelectedOptions()
	opts.DumpAfter = pass
	c, err := Compile(src, 16, opts)
	if err != nil {
		t.Fatalf("compile %s: %v", figure, err)
	}
	got, ok := c.Profile().Dumps[pass]
	if !ok {
		t.Fatalf("no %s snapshot captured", pass)
	}
	checkGolden(t, filepath.Join("testdata", "dumps", figure+"."+pass+".golden"), got)
}

// TestGoldenDumps locks down the -dump-after=ssa snapshot of every paper
// figure program: the pipeline's IR, CFG, SSA, constant and mapping state
// must be byte-identical to the checked-in golden files. Run with -update
// after an intentional change.
func TestGoldenDumps(t *testing.T) {
	for _, name := range FigureNames() {
		t.Run(name, func(t *testing.T) { checkGoldenDump(t, name, "ssa") })
	}
}

// TestGoldenAutoPrivDumps locks down the -dump-after=autopriv snapshot of
// every paper figure: the classification summary and the inferred loop
// annotations the pass inserted must be byte-identical to the checked-in
// golden files. Run with -update after an intentional change.
func TestGoldenAutoPrivDumps(t *testing.T) {
	for _, name := range FigureNames() {
		t.Run(name, func(t *testing.T) { checkGoldenDump(t, name, "autopriv") })
	}
}

// TestGoldenReducePlanDump locks down the -dump-after=reduceplan snapshot of
// Figure 5, the figure with a reduction: the snapshot ends in the reduceplan
// section, one decision per line.
func TestGoldenReducePlanDump(t *testing.T) {
	checkGoldenDump(t, "figure5", "reduceplan")
}

// TestGoldenDumpStability compiles each figure twice and requires identical
// snapshots, independent of the golden files (catches nondeterminism even
// when -update was just run).
func TestGoldenDumpStability(t *testing.T) {
	for _, name := range FigureNames() {
		src, _ := FigureSource(name)
		opts := SelectedOptions()
		opts.DumpAfter = "ssa"
		c1, err := Compile(src, 16, opts)
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		c2, _ := Compile(src, 16, opts)
		if c1.Profile().Dumps["ssa"] != c2.Profile().Dumps["ssa"] {
			t.Errorf("%s: ssa dump differs between two compilations", name)
		}
	}
}

// TestGoldenPaperCells pins, at full float64 precision, every cell of the
// paper's §5 evaluation at the sizes BENCH_<n>.json recorded: Tables 1–3, the
// reduce sweep at P=8, and DGEFA(48) at P=4 clean, checkpointed and recovered
// from a mid-loop crash. Each table cell is its simulated seconds, messages
// and bytes moved; the recovery rows go through the chaos sweep, so the
// concurrent executor must also agree with the simulator on them bitwise.
// Run with -update after an intentional change to the cost model.
func TestGoldenPaperCells(t *testing.T) {
	reduce := ReduceSweep([]DiffProgram{
		{Name: "Histogram(256,32,4)", Source: programs.Histogram(256, 32, 4)},
		{Name: "DotSweep(48,24)", Source: programs.DotSweep(48, 24)},
	}, []int{8}, 0)
	reduce.Title, reduce.Corner, reduce.LabelWidth = "Reduce sweep (P=8)", "program", -19
	full := func(c Cell) string {
		return fmt.Sprintf("%.17g/%d/%d", c.Seconds, c.Stats.Messages, c.Stats.BytesMoved)
	}
	var b strings.Builder
	b.WriteString("cells: simulated seconds (%.17g) / messages / bytes moved\n")
	for _, tbl := range []*Table{
		Table1TOMCATV(65, 3, []int{1, 4, 16}, 0),
		Table2DGEFA(96, []int{4, 16}, 0),
		Table3APPSP(12, 12, 12, 2, []int{4, 16}, 0),
		reduce,
	} {
		if err := tbl.Run(); err != nil {
			t.Fatal(err)
		}
		tbl.Show, tbl.Width = full, 36
		b.WriteString("\n" + tbl.String())
	}

	var plans []ChaosPlan
	for _, p := range DefaultChaosPlans() {
		if p.Name == "checkpoint" || p.Name == "crash" {
			plans = append(plans, p)
		}
	}
	rows, err := ChaosSweep(context.Background(), []DiffProgram{{Name: "DGEFA(48)", Source: programs.DGEFA(48)}}, 4, plans)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("\nRecovery overhead — DGEFA(48), P=4, selected: simulated seconds / messages / bytes moved, fault counters\n")
	fmt.Fprintf(&b, "%-10s %.17g\n", "clean", rows[0].CleanSeconds)
	for _, r := range rows {
		if !r.Match() {
			t.Errorf("%s: %s", r.Plan, r.verdict())
		}
		s := r.Sim.Stats
		fmt.Fprintf(&b, "%-10s %.17g/%d/%d %s\n", r.Plan, r.Sim.Time, s.Messages, s.BytesMoved, s.FaultString())
	}
	checkGolden(t, filepath.Join("testdata", "tables", "paper_cells.golden"), b.String())
}

// TestPassNamesNameThePipeline: the one list of pass names (phpfc's help and
// its unknown-pass error print it) is the pipeline's — every name on it
// yields a snapshot — and the pipeline is the frozen ten.
func TestPassNamesNameThePipeline(t *testing.T) {
	src, _ := FigureSource("figure5")
	for _, name := range PassNames() {
		opts := SelectedOptions()
		opts.DumpAfter = name
		c, err := Compile(src, 4, opts)
		if err != nil {
			t.Fatal(err)
		}
		if c.Profile().Dumps[name] == "" {
			t.Errorf("no snapshot after %q", name)
		}
	}
	const want = "ir cfg ssa constprop induction autopriv reduceplan mapping analyze slots"
	if got := strings.Join(PassNames(), " "); got != want {
		t.Errorf("pipeline = %s, want %s", got, want)
	}
}
