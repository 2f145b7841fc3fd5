package phpf

// Benchmark harness regenerating the paper's evaluation (§5). Each
// BenchmarkTable* benchmark compiles and simulates one cell of the
// corresponding table and reports the simulated execution time as the
// custom metric "sim-sec/run" (wall time measures the compiler+simulator
// itself). Run with:
//
//	go test -bench=. -benchmem
//
// cmd/phpfbench prints the same tables in the paper's row format.

import (
	"context"
	"fmt"
	"testing"
)

// benchCell runs one (source, procs, options) configuration inside a
// benchmark, reporting simulated seconds.
func benchCell(b *testing.B, source string, procs int, opts Options) {
	b.Helper()
	var simSec float64
	for i := 0; i < b.N; i++ {
		c, err := Compile(source, procs, opts)
		if err != nil {
			b.Fatal(err)
		}
		out, err := c.Execute(context.Background(), Simulator(), RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		simSec = out.Time
	}
	b.ReportMetric(simSec, "sim-sec/run")
}

// --- Table 1: TOMCATV under three scalar-mapping compilers -----------------

func BenchmarkTable1TOMCATV(b *testing.B) {
	const n, niter = 65, 3
	src := TOMCATVSource(n, niter)
	configs := []struct {
		name string
		opts Options
	}{
		{"Replication", NaiveOptions()},
		{"Producer", ProducerOptions()},
		{"Selected", SelectedOptions()},
	}
	for _, cfg := range configs {
		for _, p := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/P=%d", cfg.name, p), func(b *testing.B) {
				benchCell(b, src, p, cfg.opts)
			})
		}
	}
}

// --- Table 2: DGEFA with and without reduction alignment -------------------

func BenchmarkTable2DGEFA(b *testing.B) {
	const n = 96
	src := DGEFASource(n)
	defOpts := SelectedOptions()
	defOpts.AlignReductions = false
	configs := []struct {
		name string
		opts Options
	}{
		{"Default", defOpts},
		{"Aligned", SelectedOptions()},
	}
	for _, cfg := range configs {
		for _, p := range []int{4, 16} {
			b.Run(fmt.Sprintf("%s/P=%d", cfg.name, p), func(b *testing.B) {
				benchCell(b, src, p, cfg.opts)
			})
		}
	}
}

// --- Table 3: APPSP privatization variants ----------------------------------

func BenchmarkTable3APPSP(b *testing.B) {
	const n, niter = 12, 2
	noPriv := SelectedOptions()
	noPriv.PrivatizeArrays = false
	noPartial := SelectedOptions()
	noPartial.PartialPrivatization = false
	configs := []struct {
		name string
		twoD bool
		opts Options
	}{
		{"1D-NoPriv", false, noPriv},
		{"1D-Priv", false, SelectedOptions()},
		{"2D-NoPartial", true, noPartial},
		{"2D-Partial", true, SelectedOptions()},
	}
	for _, cfg := range configs {
		src := APPSPSource(n, n, n, niter, cfg.twoD)
		for _, p := range []int{4, 16} {
			b.Run(fmt.Sprintf("%s/P=%d", cfg.name, p), func(b *testing.B) {
				benchCell(b, src, p, cfg.opts)
			})
		}
	}
}

// --- Reduce sweep: privatized vs collective commutative updates -------------

// BenchmarkReducePrivatization compares the two runtime reduction
// strategies on the reduce-sweep kernels at P=8: the collective reference
// routes every commutative update to the owner, the privatized runtime
// accumulates per-worker partials and tree-merges them at loop exit. The
// sim-sec/run metrics record the paper's claimed win (the acceptance bar is
// privatized >= 3x faster on both kernels); ns/op carries the wall cost of
// compiling and simulating the cell, which is what the regression gate
// watches.
func BenchmarkReducePrivatization(b *testing.B) {
	const procs = 8
	kernels := []struct {
		name   string
		source string
	}{
		{"Histogram", HistogramSource(256, 32, 4)},
		{"DotSweep", DotSweepSource(48, 24)},
	}
	modes := []struct {
		name string
		mode ReduceMode
	}{
		{"Collective", ReduceCollective},
		{"Privatized", ReducePrivatize},
	}
	for _, k := range kernels {
		for _, m := range modes {
			b.Run(fmt.Sprintf("%s/%s/P=%d", k.name, m.name, procs), func(b *testing.B) {
				c, err := Compile(k.source, procs, SelectedOptions())
				if err != nil {
					b.Fatal(err)
				}
				var simSec float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out, err := c.Execute(context.Background(), Simulator(),
						RunOptions{Reduce: m.mode})
					if err != nil {
						b.Fatal(err)
					}
					simSec = out.Time
				}
				b.ReportMetric(simSec, "sim-sec/run")
			})
		}
	}
}

// --- Figure examples: mapping-analysis cost ---------------------------------

// BenchmarkFigureAnalysis measures the compiler front end (parse through
// mapping analysis and SPMD generation) on each paper figure.
func BenchmarkFigureAnalysis(b *testing.B) {
	for _, name := range FigureNames() {
		src, _ := FigureSource(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Compile(src, 16, SelectedOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompileTOMCATV measures compilation (not simulation) of the
// largest kernel.
func BenchmarkCompileTOMCATV(b *testing.B) {
	src := TOMCATVSource(257, 10)
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src, 16, SelectedOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileInfer measures what privatization inference adds to
// compilation: the same kernel compiled with facts taken from directives
// only versus inferred by the autopriv pass (the regression-gated point —
// inference must stay a small fraction of the pipeline).
func BenchmarkCompileInfer(b *testing.B) {
	src := TOMCATVSource(257, 10)
	modes := []struct {
		name string
		mode PrivMode
	}{
		{"Directives", PrivDirectives},
		{"Infer", PrivInfer},
	}
	for _, m := range modes {
		opts := SelectedOptions()
		opts.Privatization = m.mode
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Compile(src, 16, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations: the design choices DESIGN.md calls out ----------------------

// BenchmarkAblationVectorization compares TOMCATV with and without message
// vectorization.
func BenchmarkAblationVectorization(b *testing.B) {
	src := TOMCATVSource(65, 3)
	off := SelectedOptions()
	off.DisableVectorization = true
	b.Run("vectorized", func(b *testing.B) { benchCell(b, src, 8, SelectedOptions()) })
	b.Run("per-instance", func(b *testing.B) { benchCell(b, src, 8, off) })
}

// BenchmarkAblationDependenceTest compares DGEFA with and without the
// Banerjee-style hoisting legality test.
func BenchmarkAblationDependenceTest(b *testing.B) {
	src := DGEFASource(96)
	off := SelectedOptions()
	off.DisableDependenceTest = true
	b.Run("banerjee", func(b *testing.B) { benchCell(b, src, 8, SelectedOptions()) })
	b.Run("conservative", func(b *testing.B) { benchCell(b, src, 8, off) })
}

// BenchmarkAblationControlPrivatization compares Figure 7 with and without
// §4.
func BenchmarkAblationControlPrivatization(b *testing.B) {
	src, _ := FigureSource("figure7")
	off := SelectedOptions()
	off.PrivatizeControlFlow = false
	b.Run("privatized", func(b *testing.B) { benchCell(b, src, 8, SelectedOptions()) })
	b.Run("replicated", func(b *testing.B) { benchCell(b, src, 8, off) })
}

// BenchmarkAutoArrayPrivatization compares the NEW-directive-free sweep with
// and without the automatic-privatization extension.
func BenchmarkAutoArrayPrivatization(b *testing.B) {
	src := `
program sweep
parameter n = 64
real a(n,n), w(n)
integer i, k
!hpf$ distribute (*,block) :: a
do k = 1, n
  do i = 1, n
    w(i) = a(i,k) * 2.0
  end do
  do i = 1, n
    a(i,k) = w(i) + 1.0
  end do
end do
end
`
	off := SelectedOptions()
	off.Privatization = PrivDirectives
	b.Run("auto", func(b *testing.B) { benchCell(b, src, 8, SelectedOptions()) })
	b.Run("off", func(b *testing.B) { benchCell(b, src, 8, off) })
}

// --- Fault tolerance: recovery overhead --------------------------------------

// BenchmarkRecoveryOverhead measures the wall-clock cost of the fault
// protocol on the concurrent backend: a clean run as the baseline, periodic
// coordinated checkpointing alone, and a mid-loop fail-stop recovered via
// checkpoint/restart with refetch. The sim-sec/run metric carries the
// modeled time, which includes the modeled checkpoint and recovery charges —
// the gap to Clean is the modeled recovery overhead, while ns/op is the
// physical one.
func BenchmarkRecoveryOverhead(b *testing.B) {
	const procs = 4
	c, err := Compile(DGEFASource(48), procs, SelectedOptions())
	if err != nil {
		b.Fatal(err)
	}
	clean, err := c.Execute(context.Background(), Simulator(), RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	ckpt := clean.Time / 5
	cases := []struct {
		name string
		opts RunOptions
	}{
		{"Clean", RunOptions{}},
		{"Checkpoint", RunOptions{CheckpointInterval: ckpt}},
		{"CrashRestart", RunOptions{
			CheckpointInterval: ckpt,
			Fault:              &FaultPlan{Seed: 5, Crashes: []Crash{{Proc: 1, At: 0.4 * clean.Time}}},
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var simSec float64
			for i := 0; i < b.N; i++ {
				rep, err := c.Execute(context.Background(), Concurrent(), tc.opts)
				if err != nil {
					b.Fatal(err)
				}
				simSec = rep.Time
			}
			b.ReportMetric(simSec, "sim-sec/run")
		})
	}
}

// BenchmarkSimulatorThroughput measures interpreter speed in statement
// instances per second on a communication-free kernel.
func BenchmarkSimulatorThroughput(b *testing.B) {
	src := `
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
	c, err := Compile(src, 8, SelectedOptions())
	if err != nil {
		b.Fatal(err)
	}
	// The first execution lowers the program (once per Compiled): keep that
	// out of the loop, or allocs/op depends on how many iterations share it.
	if _, err := c.Execute(context.Background(), Simulator(), RunOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Execute(context.Background(), Simulator(), RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(50*2*1000*b.N)/b.Elapsed().Seconds(), "stmt-instances/s")
}
