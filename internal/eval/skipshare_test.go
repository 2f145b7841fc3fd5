// The measurement ROADMAP item 1 asks for before anyone touches exec's
// replicated execution: with owner runs, how much of a worker's walk lies in
// runs it neither executes nor feeds? A counting Backend, no design change.
package eval_test

import (
	"testing"

	"phpf/internal/core"
	"phpf/internal/eval"
	"phpf/internal/ir"
	"phpf/internal/programs"
	"phpf/internal/spmd"
)

// skipCounter counts, per worker, the statement instances that lie in owner
// runs whose execution set and per-instance transfer endpoints all exclude
// the worker — resolved exactly as the schedule resolves them.
type skipCounter struct {
	st       *eval.State
	total    int64
	inRuns   int64
	excluded []int64 // by worker
	involved []bool  // scratch, by worker
}

func (c *skipCounter) LoopEntry(*ir.Loop, *spmd.LoopPlan) error { return nil }
func (c *skipCounter) Redistribute(*ir.Stmt) error              { return nil }
func (c *skipCounter) Tick() error                              { return nil }

// LoopExit merges privatized partials as both real backends do, so the walk
// leaves the same memory behind.
func (c *skipCounter) LoopExit(_ *ir.Loop, lp *spmd.LoopPlan) error {
	for _, cb := range lp.Combines {
		if c.st.PrivatizedActive(cb) {
			if _, err := c.st.MergePartials(cb); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *skipCounter) Statement(st *ir.Stmt, sp *spmd.StmtPlan) error {
	c.total++
	if !c.st.InRun() {
		return nil
	}
	c.inRuns++
	for p := range c.involved {
		c.involved[p] = false
	}
	mark := func(p int) { c.involved[p] = true }
	if c.st.PrivatizedActive(sp.Combine) && sp.Combine.Mapping == nil && sp.Combine.Red.DataRef != nil {
		// A privatized elementwise reduction update: computed by the data
		// owners, nothing shipped.
		set, err := c.st.OwnerSet(sp.Combine.Red.DataRef)
		if err != nil {
			return err
		}
		set.Each(mark)
	} else {
		set, err := c.st.ExecSet(sp)
		if err != nil {
			return err
		}
		set.Each(mark)
		for _, req := range sp.PerInstance {
			op, err := c.st.InstanceOp(req, sp, 8)
			if err != nil {
				return err
			}
			if !op.Skip {
				mark(op.From)
				op.Dst.Each(mark)
			}
		}
	}
	for p, in := range c.involved {
		if !in {
			c.excluded[p]++
		}
	}
	return nil
}

// TestOwnerRunSkipShare walks the four exec_concurrent programs of the
// benchmark at P=4 and reports the table EXPERIMENTS.md quotes — and, for the
// share of statement instances that lie in owner runs at all (the property an
// owner-run gain depends on), the sim_cells kernels at their benchmark sizes
// (first four workers shown). It pins only what must hold of any such count.
func TestOwnerRunSkipShare(t *testing.T) {
	naive := strategies()["naive"]
	noPriv := core.DefaultOptions()
	noPriv.PrivatizeArrays = false
	progs := []struct {
		name, src string
		nprocs    int
		opts      core.Options
	}{
		{"dgefa(48)", programs.DGEFA(48), 4, core.DefaultOptions()},
		{"smooth(64,2)", programs.Smooth(64, 2), 4, core.DefaultOptions()},
		{"histogram(256,32,4)", programs.Histogram(256, 32, 4), 4, core.DefaultOptions()},
		{"dotsweep(48,24)", programs.DotSweep(48, 24), 4, core.DefaultOptions()},
		{"tomcatv_selected", programs.TOMCATV(65, 3), 16, core.DefaultOptions()},
		{"tomcatv_replication", programs.TOMCATV(65, 3), 16, naive},
		{"dgefa_aligned", programs.DGEFA(96), 16, core.DefaultOptions()},
		{"appsp_2d_partial", programs.APPSP(12, 12, 12, 2, true), 16, core.DefaultOptions()},
		{"appsp_1d_nopriv", programs.APPSP(12, 12, 12, 2, false), 16, noPriv},
	}
	t.Logf("%-20s %10s %8s  %s", "program", "instances", "in runs", "skippable share by worker")
	for _, pr := range progs {
		nprocs := pr.nprocs
		p := compileOpts(t, pr.src, nprocs, pr.opts)
		st, err := eval.NewState(p)
		if err == nil {
			err = st.ConfigureReduce(core.ReduceAuto, eval.Budget{})
		}
		if err != nil {
			t.Fatal(err)
		}
		c := &skipCounter{st: st, excluded: make([]int64, nprocs), involved: make([]bool, nprocs)}
		if err := eval.Walk(st, c); err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		shares := make([]float64, nprocs)
		for w, n := range c.excluded {
			if n < 0 || n > c.inRuns {
				t.Errorf("%s: worker %d excluded from %d of %d run instances", pr.name, w, n, c.inRuns)
			}
			shares[w] = float64(n) / float64(c.total)
		}
		if c.inRuns > c.total || c.total == 0 {
			t.Errorf("%s: %d of %d instances in runs", pr.name, c.inRuns, c.total)
		}
		t.Logf("%-20s %10d %7.1f%%  %.1f%% %.1f%% %.1f%% %.1f%%", pr.name, c.total,
			100*float64(c.inRuns)/float64(c.total), 100*shares[0], 100*shares[1], 100*shares[2], 100*shares[3])
	}
}

// throughput is the benchmark's communication-free cell (bench/workloads.go's
// tpSource, BenchmarkSimulatorThroughput's kernel).
const throughput = `
program tp
parameter n = 1000
real a(n), bb(n)
integer i, it
!hpf$ align bb(i) with a(i)
!hpf$ distribute (block) :: a
do it = 1, 50
  do i = 1, n
    a(i) = bb(i) * 0.5 + 1.0
  end do
  do i = 1, n
    bb(i) = a(i)
  end do
end do
end
`

// TestRunCensus pins, for the benchmark's sim_cells cells and exec_concurrent
// inputs, how many statement instances the production walk runs in quiet owner
// runs (charged from their lists) — swept through the run kernel, run by it in
// iteration order where its dependence test refused the sweep, or in a loop
// that has no kernel — in loud ones (a requirement moves data between States
// that each hold their processor's, or a site inside an iteration can stop the
// run) and on the general walk, how many runs of either kind there are, and
// how many operations closed the quiet iterations: a change that turns runs
// loud or general, stops sweeping them or closing them by the strip, fails
// here, not only on a clock. The walk is the simulator's own — the accountant
// it embeds decides what a run lists — so no sim_cells run is loud: each
// transfer is a charge of its run's list. The table it logs (-v) is the one
// EXPERIMENTS.md quotes.
func TestRunCensus(t *testing.T) {
	naive := strategies()["naive"]
	noPriv := core.DefaultOptions()
	noPriv.PrivatizeArrays = false
	var cells, inputs eval.Census
	row := func(name string, c eval.Census) {
		t.Logf("| %-19s | %7d | %7d | %9d | %6d | %7d | %7d | %6d |", name,
			c.Swept, c.Ordered, c.Quiet-c.Swept-c.Ordered, c.Loud, c.General, c.Quiet+c.Loud+c.General, c.Strips)
	}
	t.Logf("| %-19s | %7s | %7s | %9s | %6s | %7s | %7s | %6s |", "input", "swept", "ordered", "no kernel", "loud", "general", "total", "strips")
	t.Log("|---|---|---|---|---|---|---|---|")
	for _, pr := range []struct {
		name, src string
		nprocs    int
		opts      core.Options
		sum       *eval.Census
		want      eval.Census
	}{
		{"tp", throughput, 8, core.DefaultOptions(), &cells,
			eval.Census{Quiet: 100000, QuietRuns: 800, Swept: 100000, Strips: 800}},
		// Not swept: the tridiagonal recurrence, run in iteration order — the
		// same under either mapping: the replication's broadcasts are charges.
		// The residual maxima (rxm, rym) are kCarry operations, folded into a
		// partial row where privatized and carried where replicated.
		{"tomcatv_selected", programs.TOMCATV(65, 3), 16, core.DefaultOptions(), &cells,
			eval.Census{Quiet: 210113, General: 6, QuietRuns: 821, Swept: 163241, Ordered: 46872, Strips: 821}},
		{"tomcatv_replication", programs.TOMCATV(65, 3), 16, naive, &cells,
			eval.Census{Quiet: 210113, General: 6, QuietRuns: 821, Swept: 163241, Ordered: 46872, Strips: 821}},
		{"dgefa_aligned", programs.DGEFA(96), 16, core.DefaultOptions(), &cells,
			eval.Census{Quiet: 304094, General: 18940, QuietRuns: 4749, Swept: 304094, Strips: 4749}},
		{"appsp_2d_partial", programs.APPSP(12, 12, 12, 2, true), 16, core.DefaultOptions(), &cells,
			eval.Census{Quiet: 21712, QuietRuns: 704, Swept: 21712, Strips: 704}},
		{"appsp_1d_nopriv", programs.APPSP(12, 12, 12, 2, false), 16, noPriv, &cells,
			eval.Census{Quiet: 21712, General: 8, QuietRuns: 704, Swept: 21712, Strips: 704}},
		{"dgefa(48)", programs.DGEFA(48), 4, core.DefaultOptions(), &inputs,
			eval.Census{Quiet: 39150, General: 4876, QuietRuns: 1221, Swept: 39150, Strips: 1221}},
		{"smooth(64,2)", programs.Smooth(64, 2), 4, core.DefaultOptions(), &inputs,
			eval.Census{Quiet: 560, QuietRuns: 20, Swept: 560, Strips: 20}},
		{"histogram(256,32,4)", programs.Histogram(256, 32, 4), 4, core.DefaultOptions(), &inputs,
			eval.Census{Quiet: 256, General: 1024, QuietRuns: 4, Swept: 256, Strips: 4}},
		// Not swept: the dot product's privatized accumulation, an elementwise
		// update r(j) = r(j) + …, which has no kernel.
		{"dotsweep(48,24)", programs.DotSweep(48, 24), 4, core.DefaultOptions(), &inputs,
			eval.Census{Quiet: 3432, QuietRuns: 284, Swept: 2304, Strips: 1224}},
	} {
		res, err := eval.LoweredSimulate(compileOpts(t, pr.src, pr.nprocs, pr.opts), core.ReduceAuto)
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		c := res.Census
		if c != pr.want {
			t.Errorf("%s: census %+v, want %+v", pr.name, c, pr.want)
		}
		if pr.sum == &cells && (c.Quiet != c.Swept+c.Ordered || c.Strips != c.QuietRuns) {
			t.Errorf("%s: census %+v, want every quiet instance run by a kernel and every quiet run one strip", pr.name, c)
		}
		row(pr.name, c)
		*pr.sum = eval.Census{pr.sum.Quiet + c.Quiet, pr.sum.Loud + c.Loud, pr.sum.General + c.General,
			pr.sum.QuietRuns + c.QuietRuns, pr.sum.LoudRuns + c.LoudRuns, pr.sum.Swept + c.Swept, pr.sum.Ordered + c.Ordered,
			pr.sum.Strips + c.Strips}
	}
	// One sim_cells op (the bench's eval.stmt_instances_per_op is the three
	// instance counts' sum, 886,704) and one exec_concurrent worker.
	row("sim_cells", cells)
	row("exec_concurrent", inputs)
	if want := (eval.Census{Quiet: 867744, General: 18960, QuietRuns: 8599,
		Swept: 774000, Ordered: 93744, Strips: 8599}); cells != want {
		t.Errorf("sim_cells: census %+v, want %+v", cells, want)
	}
	if want := (eval.Census{Quiet: 43398, General: 5900, QuietRuns: 1529, Swept: 42270, Strips: 2469}); inputs != want {
		t.Errorf("exec_concurrent: census %+v, want %+v", inputs, want)
	}
}

// TestBoundaryBackOff: a three-point stencil on a BLOCK axis whose statements
// follow three different references (Smooth under the producer strategy: the
// sets of its first loop follow u(i-1), u(i+1) and v(i)) has two single
// iterations in a row at every block boundary. The walk must take up owner
// runs again behind them — it used to give up for the rest of the loop entry,
// as it may on a CYCLIC axis — so the general walk is left the boundary
// iterations only: two of three statements for each of the P-1 boundaries, in
// each of four sweeps.
func TestBoundaryBackOff(t *testing.T) {
	for name, opts := range strategies() {
		for _, nprocs := range []int{4, 16} {
			p := compileOpts(t, programs.Smooth(64, 4), nprocs, opts)
			res, err := eval.LoweredSimulate(p, core.ReduceAuto)
			if err != nil {
				t.Fatal(err)
			}
			want := int64(0)
			if name == "producer" {
				want = int64(nprocs-1) * 2 * 3 * 4
			}
			if c := res.Census; c.General != want || c.Quiet+c.General != 1056 {
				t.Errorf("%s at P=%d: census %+v, want %d instances on the general walk of 1056", name, nprocs, c, want)
			}
			diffOne(t, p, core.ReduceAuto)
		}
	}
}
