package phpf

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"phpf/internal/programs"
)

// Cell is one measurement in a reproduced table: a simulated execution time,
// possibly aborted at the configured limit (the paper's "> 1 day" entries).
type Cell struct {
	Seconds float64
	Aborted bool
	Stats   Stats
}

// String renders the cell like the paper's tables.
func (c Cell) String() string {
	if c.Aborted {
		return fmt.Sprintf("> %.2f (aborted)", c.Seconds)
	}
	return fmt.Sprintf("%.4f", c.Seconds)
}

func cellOf(rep *Report) Cell {
	return Cell{Seconds: rep.Time, Aborted: rep.Aborted, Stats: rep.Stats}
}

// ---------------------------------------------------------------------------
// The cell runner and the tables declared over it.

// runCell compiles and simulates one cell: a program under one option set
// at one processor count and one run configuration.
func runCell(source string, nprocs int, opts Options, run RunOptions) (Cell, error) {
	c, err := Compile(source, nprocs, opts)
	if err != nil {
		return Cell{}, err
	}
	rep, err := c.Execute(context.Background(), Simulator(), run)
	if err != nil {
		return Cell{}, err
	}
	return cellOf(rep), nil
}

// Column declares one column of a table: its heading and what a cell under
// it compiles and runs. Rewriting a table's columns before Run is how a
// caller applies one setting to every cell (phpfbench -privatize / -reduce).
type Column struct {
	Head   string
	Source string
	Opts   Options
	Run    RunOptions
}

// Row is one row of a table: its label, the processor count of its cells,
// and — in the tables where the row rather than the column decides them —
// the program and the compiler options. Run fills Cells, one per column.
type Row struct {
	Label  string
	Procs  int
	Source string   // "" = each column's
	Opts   *Options // nil = each column's
	Cells  []Cell
}

// Table is a declared sweep: rows × columns of cells, with the layout its
// String renders them in. The builders below return it unrun.
type Table struct {
	Title  string
	Corner string // heading of the label column
	// LabelWidth and Width are the widths of the label column (negative:
	// left-aligned) and of each cell column.
	LabelWidth, Width int
	// Show renders one cell (nil: Cell.String).
	Show func(Cell) string
	Cols []Column
	Rows []Row
}

// Run fills every row's cells, all concurrently — every cell is an
// independent compile+simulate pipeline, so the harness fans out across the
// host's cores. The first failing cell's error wins.
func (t *Table) Run() error {
	n := len(t.Cols)
	cells := make([]Cell, len(t.Rows)*n)
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i, r := range t.Rows {
		for j, c := range t.Cols {
			source, opts := c.Source, c.Opts
			if r.Source != "" {
				source = r.Source
			}
			if r.Opts != nil {
				opts = *r.Opts
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				cells[i*n+j], errs[i*n+j] = runCell(source, r.Procs, opts, c.Run)
			}()
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i := range t.Rows {
		t.Rows[i].Cells = cells[i*n : (i+1)*n]
	}
	return nil
}

// String renders the table: the title, the column headings, one line per row.
func (t *Table) String() string {
	show := t.Show
	if show == nil {
		show = Cell.String
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%*s", t.Title, t.LabelWidth, t.Corner)
	for _, c := range t.Cols {
		fmt.Fprintf(&b, " %*s", t.Width, c.Head)
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%*s", t.LabelWidth, r.Label)
		for _, c := range r.Cells {
			fmt.Fprintf(&b, " %*s", t.Width, show(c))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// procRows is one row per processor count, labeled with it.
func procRows(procs []int) []Row {
	rows := make([]Row, len(procs))
	for i, p := range procs {
		rows[i] = Row{Label: strconv.Itoa(p), Procs: p}
	}
	return rows
}

// paperTable lays a table out like the paper's: processor counts down.
func paperTable(title string, width int, procs []int, cols []Column) *Table {
	return &Table{Title: title + " — execution time (s)", Corner: "#Procs",
		LabelWidth: 6, Width: width, Cols: cols, Rows: procRows(procs)}
}

// Table1TOMCATV declares Table 1: TOMCATV execution time under replication,
// producer alignment, and selected alignment. maxSeconds bounds each
// simulated run (0 = unlimited).
func Table1TOMCATV(n, niter int, procs []int, maxSeconds float64) *Table {
	src, run := programs.TOMCATV(n, niter), RunOptions{MaxSeconds: maxSeconds}
	return paperTable(fmt.Sprintf("Table 1. TOMCATV (n=%d, niter=%d)", n, niter), 18, procs, []Column{
		{"Replication", src, NaiveOptions(), run},
		{"Producer Align", src, ProducerOptions(), run},
		{"Selected Align", src, SelectedOptions(), run},
	})
}

// Table2DGEFA declares Table 2: DGEFA with the reduction variables
// replicated ("Default") and under the §2.3 mapping ("Alignment").
func Table2DGEFA(n int, procs []int, maxSeconds float64) *Table {
	src, run := programs.DGEFA(n), RunOptions{MaxSeconds: maxSeconds}
	defOpts := SelectedOptions()
	defOpts.AlignReductions = false
	return paperTable(fmt.Sprintf("Table 2. DGEFA (n=%d, (*,cyclic))", n), 18, procs, []Column{
		{"Default", src, defOpts, run},
		{"Alignment", src, SelectedOptions(), run},
	})
}

// Table3APPSP declares Table 3: APPSP under the 1-D distribution without and
// with (full) array privatization, and under the 2-D distribution without
// and with partial privatization. The no-privatization columns are expected
// to hit maxSeconds (the paper aborted them after a day).
func Table3APPSP(nx, ny, nz, niter int, procs []int, maxSeconds float64) *Table {
	src1, src2 := programs.APPSP(nx, ny, nz, niter, false), programs.APPSP(nx, ny, nz, niter, true)
	run := RunOptions{MaxSeconds: maxSeconds}
	noPriv := SelectedOptions()
	noPriv.PrivatizeArrays = false
	noPartial := SelectedOptions()
	noPartial.PartialPrivatization = false
	return paperTable(fmt.Sprintf("Table 3. APPSP (%dx%dx%d, niter=%d)", nx, ny, nz, niter), 20, procs, []Column{
		{"1-D, No Array Priv", src1, noPriv, run},
		{"1-D, Priv", src1, SelectedOptions(), run},
		{"2-D, No Partial", src2, noPartial, run},
		{"2-D, Partial", src2, SelectedOptions(), run},
	})
}

// FaultSweep declares the fault sweep of one program: the three mapping
// strategies down, a set of message-loss rates across, all driven by the
// same deterministic seed, each cell showing time and retransmission count.
// The zero rate reproduces the fault-free run exactly.
func FaultSweep(title, source string, nprocs int, lossRates []float64, seed int64, maxSeconds float64) *Table {
	t := &Table{Title: title + " — execution time (s) / retransmits under message loss",
		Corner: "strategy", LabelWidth: -12, Width: 16,
		Show: func(c Cell) string {
			if c.Aborted {
				return "aborted"
			}
			return fmt.Sprintf("%.4f/%d", c.Seconds, c.Stats.Retransmits)
		}}
	for _, rate := range lossRates {
		run := RunOptions{MaxSeconds: maxSeconds}
		if rate > 0 {
			run.Fault = &FaultPlan{Seed: seed, LossRate: rate}
		}
		t.Cols = append(t.Cols, Column{Head: fmt.Sprintf("loss=%g", rate), Source: source, Run: run})
	}
	for _, s := range Strategies() {
		t.Rows = append(t.Rows, Row{Label: s.Name, Procs: nprocs, Opts: &s.Opts})
	}
	return t
}

// ReduceSweep declares the reduce sweep: every program at every processor
// count under ReduceCollective and ReducePrivatize — the O(iterations)
// per-instance collectives of the owner-computes reference against the
// O(log P) merge hops of the privatized runtime. FormatReduceSweep renders
// it; phpfbench -reduce-sweep prints it.
func ReduceSweep(progs []DiffProgram, procs []int, maxSeconds float64) *Table {
	t := &Table{Cols: []Column{
		{Head: "collective", Opts: SelectedOptions(), Run: RunOptions{MaxSeconds: maxSeconds, Reduce: ReduceCollective}},
		{Head: "privatized", Opts: SelectedOptions(), Run: RunOptions{MaxSeconds: maxSeconds, Reduce: ReducePrivatize}},
	}}
	for _, p := range progs {
		for _, np := range procs {
			t.Rows = append(t.Rows, Row{Label: p.Name, Procs: np, Source: p.Source})
		}
	}
	return t
}

// FormatReduceSweep renders a run reduce sweep: per kernel and processor
// count, the simulated time and modeled message count of each strategy, the
// privatized runtime's tree merges, and the speedup (collective time over
// privatized time).
func FormatReduceSweep(t *Table) string {
	var b strings.Builder
	b.WriteString("Reduce sweep — collective vs privatized commutative updates (simulated time)\n")
	fmt.Fprintf(&b, "%-28s %6s %14s %9s %14s %9s %7s %8s\n",
		"program", "#Procs", "collective(s)", "msgs", "privatized(s)", "msgs", "merges", "speedup")
	for _, r := range t.Rows {
		coll, priv := r.Cells[0], r.Cells[1]
		speedup := 0.0
		if priv.Seconds != 0 {
			speedup = coll.Seconds / priv.Seconds
		}
		fmt.Fprintf(&b, "%-28s %6d %14s %9d %14s %9d %7d %7.1fx\n",
			r.Label, r.Procs, coll.String(), coll.Stats.Messages,
			priv.String(), priv.Stats.Messages, priv.Stats.Merges, speedup)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Sweeps over program × strategy × processor count with their own per-point
// measurement: the differential oracle, the chaos plans, the trace matrices.

// DiffProgram names one source program for a sweep.
type DiffProgram struct {
	Name   string
	Source string
}

// SweepPoint identifies one point of such a sweep: a program compiled under
// one mapping strategy for one processor count.
type SweepPoint struct {
	Program  string
	Strategy string
	Procs    int
}

// eachPoint compiles every program under every strategy for every processor
// count, in that order, and hands the result to f; the first error ends the
// sweep, wrapped in the point's name.
func eachPoint(progs []DiffProgram, strats []Strategy, procs []int, f func(SweepPoint, *Compiled) error) error {
	for _, p := range progs {
		for _, s := range strats {
			for _, np := range procs {
				c, err := Compile(p.Source, np, s.Opts)
				if err == nil {
					err = f(SweepPoint{p.Name, s.Name, np}, c)
				}
				if err != nil {
					return fmt.Errorf("%s/%s/p%d: %w", p.Name, s.Name, np, err)
				}
			}
		}
	}
	return nil
}

// OracleRow is one differential-oracle verdict of a sweep: the point, both
// backends' reports of it and the mismatches between them (Match reports
// whether they agreed bit-for-bit). In the chaos sweep the run is under the
// seeded fault plan named Plan, and CleanSeconds is the fault-free simulated
// time the plan's crash time and checkpoint interval scale with.
type OracleRow struct {
	SweepPoint
	Plan         string
	CleanSeconds float64
	*DiffReport
}

// verdictOnly drops the final arrays from a differential report: a sweep
// keeps every point's verdict and counters, not its memory images.
func verdictOnly(rep *DiffReport) *DiffReport {
	rep.Sim.Arrays, rep.Exec.Arrays = nil, nil
	return rep
}

// DiffSweep runs the differential oracle over every program, every mapping
// strategy of Table 1, and every processor count: the concurrent executor's
// numeric results and communication statistics must equal the sequential
// simulator's. The rows report each configuration's verdict; an error means
// a backend failed to run at all.
func DiffSweep(ctx context.Context, progs []DiffProgram, procs []int) ([]OracleRow, error) {
	var rows []OracleRow
	err := eachPoint(progs, Strategies(), procs, func(pt SweepPoint, c *Compiled) error {
		rep, err := c.Diff(ctx, RunOptions{})
		if err == nil {
			rows = append(rows, OracleRow{SweepPoint: pt, DiffReport: verdictOnly(rep)})
		}
		return err
	})
	return rows, err
}

// FormatDiffSweep renders the sweep as a verdict matrix.
func FormatDiffSweep(rows []OracleRow) string {
	var b strings.Builder
	b.WriteString("Differential oracle — concurrent executor vs sequential simulator\n")
	fmt.Fprintf(&b, "%-28s %-10s %6s %10s  verdict\n", "program", "strategy", "procs", "traffic")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %-10s %6d %10d  %s\n",
			r.Program, r.Strategy, r.Procs, r.Exec.TrafficMessages, r.verdict())
	}
	return b.String()
}

// verdict is the row's last column: "match", or the mismatch count followed
// by one indented line per mismatch.
func (r OracleRow) verdict() string {
	if r.Match() {
		return "match"
	}
	return fmt.Sprintf("MISMATCH (%d)\n    %s", len(r.Mismatches), strings.Join(r.Mismatches, "\n    "))
}

// ChaosPlan names one seeded fault scenario for the chaos sweep. Crash times
// and the checkpoint interval are given as fractions of the program's clean
// simulated time, so the same plan places a mid-loop crash sensibly across
// benchmarks of very different scales.
type ChaosPlan struct {
	Name     string
	Seed     int64
	LossRate float64
	DupRate  float64
	// CrashProc fail-stops at CrashFrac of the clean simulated time when
	// CrashFrac > 0.
	CrashProc int
	CrashFrac float64
	// CheckpointFrac > 0 checkpoints every so many clean-time fractions.
	CheckpointFrac float64
}

// DefaultChaosPlans is the seeded scenario matrix the chaos sweep (and the
// CI chaos gate) runs: message loss, duplication, coordinated checkpointing,
// a mid-loop fail-stop recovered from checkpoint, and all of it combined.
func DefaultChaosPlans() []ChaosPlan {
	return []ChaosPlan{
		{Name: "loss", Seed: 7, LossRate: 0.05},
		{Name: "dup", Seed: 3, DupRate: 0.05},
		{Name: "checkpoint", CheckpointFrac: 0.2},
		{Name: "crash", Seed: 5, CrashProc: 1, CrashFrac: 0.4, CheckpointFrac: 0.2},
		{Name: "mixed", Seed: 11, LossRate: 0.02, DupRate: 0.02, CrashProc: 2, CrashFrac: 0.6, CheckpointFrac: 0.2},
	}
}

// ChaosSweep measures every program (under selected alignment) under every
// chaos plan: a clean simulator run fixes the time scale, then the
// differential oracle executes the seeded plan on both backends — real
// checkpoint/restart on the concurrent side — and demands bitwise agreement
// on results, statistics (the fault counters among them), and simulated time.
func ChaosSweep(ctx context.Context, progs []DiffProgram, nprocs int, plans []ChaosPlan) ([]OracleRow, error) {
	var rows []OracleRow
	selected := []Strategy{{"selected", SelectedOptions()}}
	err := eachPoint(progs, selected, []int{nprocs}, func(pt SweepPoint, c *Compiled) error {
		clean, err := c.Execute(ctx, Simulator(), RunOptions{})
		if err != nil {
			return fmt.Errorf("clean run: %w", err)
		}
		for _, plan := range plans {
			opts := RunOptions{CheckpointInterval: plan.CheckpointFrac * clean.Time}
			fp := &FaultPlan{Seed: plan.Seed, LossRate: plan.LossRate, DupRate: plan.DupRate}
			if plan.CrashFrac > 0 {
				fp.Crashes = []Crash{{Proc: plan.CrashProc, At: plan.CrashFrac * clean.Time}}
			}
			if fp.Active() {
				opts.Fault = fp
			}
			rep, err := c.Diff(ctx, opts)
			if err != nil {
				return fmt.Errorf("%s: %w", plan.Name, err)
			}
			rows = append(rows, OracleRow{pt, plan.Name, clean.Time, verdictOnly(rep)})
		}
		return nil
	})
	return rows, err
}

// FormatChaosSweep renders the chaos sweep: per program and plan, the
// modeled recovery overhead (faulted over clean simulated time, less one),
// the coordinated restarts the concurrent backend performed, and the modeled
// checkpoints, retransmissions and duplicates (the simulator's Stats, which
// the oracle has proven equal to the executor's) — with the oracle's verdict
// on each row.
func FormatChaosSweep(rows []OracleRow) string {
	var b strings.Builder
	b.WriteString("Chaos sweep — seeded faults on both backends (oracle-checked)\n")
	fmt.Fprintf(&b, "%-24s %-11s %10s %10s %9s %8s %6s %7s %6s  verdict\n",
		"program", "plan", "clean(s)", "faulted(s)", "overhead", "restarts", "ckpts", "retrans", "dup")
	for _, r := range rows {
		s := r.Sim.Stats
		fmt.Fprintf(&b, "%-24s %-11s %10.6f %10.6f %8.1f%% %8d %6d %7d %6d  %s\n",
			r.Program, r.Plan, r.CleanSeconds, r.Sim.Time, 100*(r.Sim.Time/r.CleanSeconds-1),
			r.Exec.Restarts, s.Checkpoints, s.Retransmits, s.Duplicates, r.verdict())
	}
	return b.String()
}

// TracePoint is one traced sweep point: its simulated time and statistics,
// and the exact derived metrics of the traced run — the P×P communication
// matrix, per-class totals, per-statement histograms.
type TracePoint struct {
	SweepPoint
	Cell  Cell
	Trace *TraceRecorder
}

// TraceSweep simulates every program under every mapping strategy of Table 1
// at every processor count, with runtime tracing enabled, and returns one
// traced point per configuration. maxSeconds bounds each run (0 = unlimited).
func TraceSweep(ctx context.Context, progs []DiffProgram, procs []int, maxSeconds float64) ([]TracePoint, error) {
	var points []TracePoint
	err := eachPoint(progs, Strategies(), procs, func(pt SweepPoint, c *Compiled) error {
		rep, err := c.Execute(ctx, Simulator(), RunOptions{MaxSeconds: maxSeconds, Trace: &TraceOptions{}})
		if err == nil {
			points = append(points, TracePoint{pt, cellOf(rep), rep.Trace})
		}
		return err
	})
	return points, err
}

// FormatTraceSweep renders each sweep point's communication matrix (rows =
// sender, columns = receiver) with its simulated time and message totals.
func FormatTraceSweep(points []TracePoint) string {
	var b strings.Builder
	b.WriteString("Trace sweep — planned communication matrix per sweep point\n")
	for _, pt := range points {
		m := pt.Trace.CommMatrix()
		t := m.Total()
		fmt.Fprintf(&b, "\n%s / %s / p=%d — time %s, %d msgs, %d bytes\n",
			pt.Program, pt.Strategy, pt.Procs, pt.Cell.String(), t.Msgs, t.Bytes)
		b.WriteString(m.String())
	}
	return b.String()
}
