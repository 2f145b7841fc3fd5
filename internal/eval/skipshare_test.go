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
// runs (charged once per iteration), in loud ones (a requirement moves data)
// and on the general walk, and how many runs of either kind there are: a
// change that turns runs loud or general fails here, not only on a clock.
func TestRunCensus(t *testing.T) {
	naive := strategies()["naive"]
	noPriv := core.DefaultOptions()
	noPriv.PrivatizeArrays = false
	var cells, inputs eval.Census
	for _, pr := range []struct {
		name, src string
		nprocs    int
		opts      core.Options
		sum       *eval.Census
		want      eval.Census // quiet, loud, general instances; quiet, loud runs
	}{
		{"tp", throughput, 8, core.DefaultOptions(), &cells, eval.Census{100000, 0, 0, 800, 0}},
		{"tomcatv_selected", programs.TOMCATV(65, 3), 16, core.DefaultOptions(), &cells, eval.Census{210113, 0, 6, 821, 0}},
		{"tomcatv_replication", programs.TOMCATV(65, 3), 16, naive, &cells, eval.Census{163241, 46872, 6, 632, 189}},
		{"dgefa_aligned", programs.DGEFA(96), 16, core.DefaultOptions(), &cells, eval.Census{304094, 0, 18940, 4749, 0}},
		{"appsp_2d_partial", programs.APPSP(12, 12, 12, 2, true), 16, core.DefaultOptions(), &cells, eval.Census{21712, 0, 0, 704, 0}},
		{"appsp_1d_nopriv", programs.APPSP(12, 12, 12, 2, false), 16, noPriv, &cells, eval.Census{14512, 7200, 8, 524, 180}},
		{"dgefa(48)", programs.DGEFA(48), 4, core.DefaultOptions(), &inputs, eval.Census{39150, 0, 4876, 1221, 0}},
		{"smooth(64,2)", programs.Smooth(64, 2), 4, core.DefaultOptions(), &inputs, eval.Census{560, 0, 0, 20, 0}},
		{"histogram(256,32,4)", programs.Histogram(256, 32, 4), 4, core.DefaultOptions(), &inputs, eval.Census{256, 0, 1024, 4, 0}},
		{"dotsweep(48,24)", programs.DotSweep(48, 24), 4, core.DefaultOptions(), &inputs, eval.Census{3432, 0, 0, 284, 0}},
	} {
		res, err := eval.LoweredSimulate(compileOpts(t, pr.src, pr.nprocs, pr.opts), core.ReduceAuto)
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		c := res.Census
		if c != pr.want {
			t.Errorf("%s: census %+v, want %+v", pr.name, c, pr.want)
		}
		*pr.sum = eval.Census{pr.sum.Quiet + c.Quiet, pr.sum.Loud + c.Loud, pr.sum.General + c.General,
			pr.sum.QuietRuns + c.QuietRuns, pr.sum.LoudRuns + c.LoudRuns}
	}
	// One sim_cells op (the bench's eval.stmt_instances_per_op is the three
	// instance counts' sum, 886,704) and one exec_concurrent worker.
	if want := (eval.Census{813672, 54072, 18960, 8230, 369}); cells != want {
		t.Errorf("sim_cells: census %+v, want %+v", cells, want)
	}
	if want := (eval.Census{43398, 0, 5900, 1529, 0}); inputs != want {
		t.Errorf("exec_concurrent: census %+v, want %+v", inputs, want)
	}
}
