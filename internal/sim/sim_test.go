package sim

import (
	"math"
	"testing"

	"phpf/internal/core"
	"phpf/internal/machine"
	"phpf/internal/parser"
	"phpf/internal/spmd"
)

func run(t *testing.T, src string, nprocs int, opts core.Options) *Result {
	t.Helper()
	res := runErr(t, src, nprocs, opts, Config{})
	return res
}

func runErr(t *testing.T, src string, nprocs int, opts core.Options, cfg Config) *Result {
	t.Helper()
	out, err := Run(compileWith(t, src, nprocs, opts), cfg)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	return out
}

// compileWith compiles src down to an SPMD program under opts.
func compileWith(t *testing.T, src string, nprocs int, opts core.Options) *spmd.Program {
	t.Helper()
	ap, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cres, err := core.BuildAndAnalyze(ap, nprocs, opts)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return spmd.Generate(cres)
}

func approxSlice(t *testing.T, got []float64, want []float64, name string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("%s[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
}

// TestValuesSimpleLoop checks basic value semantics.
func TestValuesSimpleLoop(t *testing.T) {
	src := `
program t
parameter n = 8
real a(n), b(n)
integer i
!hpf$ align b(i) with a(i)
!hpf$ distribute (block) :: a
do i = 1, n
  b(i) = i * 2.0
  a(i) = b(i) + 1.0
end do
end
`
	out := run(t, src, 4, core.DefaultOptions())
	want := make([]float64, 8)
	for i := 0; i < 8; i++ {
		want[i] = float64(i+1)*2 + 1
	}
	approxSlice(t, out.Arrays["a"], want, "a")
}

// TestValuesFigure1 validates the figure-1 semantics against a direct Go
// evaluation, under all three scalar strategies (mapping must never change
// values).
func TestValuesFigure1(t *testing.T) {
	src := `
program figure1
parameter n = 20
real a(n), b(n), c(n), d(n), e(n), f(n)
real x, y, z
integer i, m
!hpf$ align (i) with a(i) :: b, c, d
!hpf$ align (i) with a(*) :: e, f
!hpf$ distribute (block) :: a
do i = 1, n
  b(i) = i * 1.0
  c(i) = i + 2.0
  e(i) = 1.0
  f(i) = 2.0
  a(i) = i * 0.5
end do
m = 2
do i = 2, n-1
  m = m + 1
  x = b(i) + c(i)
  y = a(i) + b(i)
  z = e(i) + f(i)
  a(i+1) = y / z
  d(m) = x / z
end do
end
`
	// Reference evaluation.
	n := 20
	a := make([]float64, n+1)
	b := make([]float64, n+1)
	c := make([]float64, n+1)
	d := make([]float64, n+1)
	for i := 1; i <= n; i++ {
		b[i] = float64(i)
		c[i] = float64(i) + 2
		a[i] = float64(i) * 0.5
	}
	for i := 2; i <= n-1; i++ {
		m := i + 1
		x := b[i] + c[i]
		y := a[i] + b[i]
		z := 3.0
		a[i+1] = y / z
		d[m] = x / z
	}

	for _, strat := range []core.ScalarStrategy{
		core.ScalarsReplicated, core.ScalarsProducerAligned, core.ScalarsSelected,
	} {
		opts := core.DefaultOptions()
		opts.Scalars = strat
		out := run(t, src, 4, opts)
		approxSlice(t, out.Arrays["a"], a[1:], "a under "+strat.String())
		approxSlice(t, out.Arrays["d"], d[1:], "d under "+strat.String())
	}
}

// TestFigure1TimeOrdering reproduces Table 1's shape on the figure-1 kernel:
// replication is slowest, producer alignment pays per-iteration messages,
// selected alignment is fastest.
func TestFigure1TimeOrdering(t *testing.T) {
	src := `
program f1big
parameter n = 2000
real a(n), b(n), c(n), d(n), e(n), f(n)
real x, y, z
integer i, m
!hpf$ align (i) with a(i) :: b, c, d
!hpf$ align (i) with a(*) :: e, f
!hpf$ distribute (block) :: a
m = 2
do i = 2, n-1
  m = m + 1
  x = b(i) + c(i)
  y = a(i) + b(i)
  z = e(i) + f(i)
  a(i+1) = y / z
  d(m) = x / z
end do
end
`
	times := map[core.ScalarStrategy]float64{}
	for _, strat := range []core.ScalarStrategy{
		core.ScalarsReplicated, core.ScalarsProducerAligned, core.ScalarsSelected,
	} {
		opts := core.DefaultOptions()
		opts.Scalars = strat
		out := run(t, src, 16, opts)
		times[strat] = out.Time
	}
	if !(times[core.ScalarsSelected] < times[core.ScalarsProducerAligned]) {
		t.Errorf("selected (%v) should beat producer (%v)",
			times[core.ScalarsSelected], times[core.ScalarsProducerAligned])
	}
	if !(times[core.ScalarsProducerAligned] < times[core.ScalarsReplicated]) {
		t.Errorf("producer (%v) should beat replication (%v)",
			times[core.ScalarsProducerAligned], times[core.ScalarsReplicated])
	}
	// The paper's headline: orders of magnitude between replication and
	// selected alignment.
	if times[core.ScalarsReplicated] < 10*times[core.ScalarsSelected] {
		t.Errorf("replication/selected ratio = %v, want >> 1",
			times[core.ScalarsReplicated]/times[core.ScalarsSelected])
	}
}

// TestGotoSemantics: the figure-7 control flow computes correct values.
func TestGotoSemantics(t *testing.T) {
	src := `
program f7
parameter n = 10
real a(n), b(n), c(n)
integer i
!hpf$ align (i) with a(i) :: b, c
!hpf$ distribute (block) :: a
do i = 1, n
  a(i) = 10.0
  c(i) = i * 1.0
  b(i) = i - 5.0
end do
do i = 1, n
  if (b(i) /= 0.0) then
    a(i) = a(i) / b(i)
    if (b(i) < 0.0) goto 100
  else
    a(i) = c(i)
    c(i) = c(i) * c(i)
  end if
  a(i) = a(i) + 100.0
100 continue
end do
end
`
	out := run(t, src, 4, core.DefaultOptions())
	// Reference.
	n := 10
	a := make([]float64, n+1)
	b := make([]float64, n+1)
	c := make([]float64, n+1)
	for i := 1; i <= n; i++ {
		a[i], c[i], b[i] = 10.0, float64(i), float64(i-5)
	}
	for i := 1; i <= n; i++ {
		if b[i] != 0 {
			a[i] = a[i] / b[i]
			if b[i] < 0 {
				continue
			}
		} else {
			a[i] = c[i]
			c[i] = c[i] * c[i]
		}
		a[i] += 100.0
	}
	approxSlice(t, out.Arrays["a"], a[1:], "a")
	approxSlice(t, out.Arrays["c"], c[1:], "c")
}

// TestReductionValueAndCombine: a sum reduction computes the right value
// and the combine appears in the stats.
func TestReductionValueAndCombine(t *testing.T) {
	src := `
program red
parameter n = 32
real a(n,n), b(n)
real s
integer i, j
!hpf$ align b(i) with a(i,*)
!hpf$ distribute (block,block) :: a
do i = 1, n
  do j = 1, n
    a(i,j) = i * 1.0 + j
  end do
end do
do i = 1, n
  s = 0.0
  do j = 1, n
    s = s + a(i,j)
  end do
  b(i) = s
end do
end
`
	check := func(out *Result) {
		t.Helper()
		for i := 1; i <= 32; i++ {
			want := 0.0
			for j := 1; j <= 32; j++ {
				want += float64(i) + float64(j)
			}
			got := out.Arrays["b"][i-1]
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("b(%d) = %v, want %v", i, got, want)
			}
		}
	}
	// Default (auto) privatizes this sum: the combine shows up as tree merges.
	out := run(t, src, 16, core.DefaultOptions())
	check(out)
	if out.Stats.Merges == 0 {
		t.Error("expected privatized tree merges in stats under reduce=auto")
	}
	if out.Stats.Reductions != 0 {
		t.Errorf("reductions = %d under reduce=auto, want 0 (privatized)", out.Stats.Reductions)
	}
	// Collective mode keeps the §2.3 log-P combining collective.
	outC := runErr(t, src, 16, core.DefaultOptions(), Config{Reduce: core.ReduceCollective})
	check(outC)
	if outC.Stats.Reductions == 0 {
		t.Error("expected reduction combines in stats under reduce=collective")
	}
	if outC.Stats.Merges != 0 {
		t.Errorf("merges = %d under reduce=collective, want 0", outC.Stats.Merges)
	}
}

// TestReplicationBroadcastStats: the replicated strategy produces broadcast
// traffic that the selected strategy avoids.
func TestReplicationBroadcastStats(t *testing.T) {
	src := `
program t
parameter n = 200
real a(n), b(n), d(n)
real x
integer i
!hpf$ align (i) with a(i) :: b, d
!hpf$ distribute (block) :: a
do i = 1, n
  x = b(i) * 2.0
  a(i) = x
  d(i) = x + a(i)
end do
end
`
	optsRepl := core.DefaultOptions()
	optsRepl.Scalars = core.ScalarsReplicated
	outRepl := run(t, src, 8, optsRepl)
	outSel := run(t, src, 8, core.DefaultOptions())
	if outSel.Stats.BytesMoved >= outRepl.Stats.BytesMoved {
		t.Errorf("selected moved %d bytes, replication %d — expected strictly less",
			outSel.Stats.BytesMoved, outRepl.Stats.BytesMoved)
	}
	if outSel.Time >= outRepl.Time {
		t.Errorf("selected time %v >= replication time %v", outSel.Time, outRepl.Time)
	}
}

// TestRedistribute: values survive and an all-to-all is charged.
func TestRedistribute(t *testing.T) {
	src := `
program t
parameter n = 16
real a(n,n)
integer i, j
!hpf$ distribute (block,*) :: a
do i = 1, n
  do j = 1, n
    a(i,j) = i * 100.0 + j
  end do
end do
!hpf$ redistribute a(*,block)
do i = 1, n
  do j = 1, n
    a(i,j) = a(i,j) + 1.0
  end do
end do
end
`
	out := run(t, src, 4, core.DefaultOptions())
	if out.Stats.AllToAlls != 1 {
		t.Errorf("all-to-alls = %d, want 1", out.Stats.AllToAlls)
	}
	for i := 1; i <= 16; i++ {
		for j := 1; j <= 16; j++ {
			want := float64(i)*100 + float64(j) + 1
			got := out.Arrays["a"][(j-1)*16+(i-1)]
			if got != want {
				t.Fatalf("a(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

// TestMaxSecondsAbort: the cutoff reproduces the paper's "aborted" entries.
func TestMaxSecondsAbort(t *testing.T) {
	src := `
program slow
parameter n = 400
real a(n), b(n)
real x
integer i
!hpf$ align b(i) with a(i)
!hpf$ distribute (block) :: a
do i = 1, n
  x = b(i)
  a(i) = x
end do
end
`
	opts := core.DefaultOptions()
	opts.Scalars = core.ScalarsReplicated
	out := runErr(t, src, 8, opts, Config{MaxSeconds: 1e-9})
	if !out.Aborted {
		t.Error("expected aborted run")
	}
}

// TestOneProcessorNoComm: on one processor nothing communicates.
func TestOneProcessorNoComm(t *testing.T) {
	src := `
program t
parameter n = 64
real a(n), b(n)
real x
integer i
!hpf$ align b(i) with a(i)
!hpf$ distribute (block) :: a
do i = 2, n
  x = b(i-1)
  a(i) = x
end do
end
`
	out := run(t, src, 1, core.DefaultOptions())
	if out.Stats.BytesMoved != 0 {
		t.Errorf("bytes moved on 1 proc = %d, want 0", out.Stats.BytesMoved)
	}
	if out.Time <= 0 {
		t.Error("time should be positive (compute)")
	}
}

// TestSpeedupWithAlignment: the aligned stencil speeds up with processors.
func TestSpeedupWithAlignment(t *testing.T) {
	src := `
program st
parameter n = 32768
real a(n), b(n)
integer i, it
!hpf$ align b(i) with a(i)
!hpf$ distribute (block) :: a
do it = 1, 10
  do i = 2, n-1
    a(i) = b(i-1) + b(i+1)
  end do
  do i = 2, n-1
    b(i) = a(i) * 0.5
  end do
end do
end
`
	t1 := run(t, src, 1, core.DefaultOptions()).Time
	t8 := run(t, src, 8, core.DefaultOptions()).Time
	if t8 >= t1 {
		t.Errorf("no speedup: t1=%v t8=%v", t1, t8)
	}
	if t1/t8 < 3 {
		t.Errorf("speedup %v too low (want >= 3 on 8 procs)", t1/t8)
	}
}

// TestBoundsError: out-of-bounds subscripts are reported.
func TestBoundsError(t *testing.T) {
	src := `
program t
parameter n = 4
real a(n)
integer i
do i = 1, 5
  a(i) = 0.0
end do
end
`
	ap, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := core.BuildAndAnalyze(ap, 2, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spmd.Generate(cres), Config{Params: machine.SP2()}); err == nil {
		t.Error("expected out-of-bounds error")
	}
}
