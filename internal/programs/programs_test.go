package programs

import (
	"math"
	"testing"

	"phpf/internal/core"
	"phpf/internal/parser"
	"phpf/internal/sim"
	"phpf/internal/spmd"
)

func simulate(t *testing.T, src string, nprocs int, opts core.Options) *sim.Result {
	t.Helper()
	ap, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := core.BuildAndAnalyze(ap, nprocs, opts)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	out, err := sim.Run(spmd.Generate(res), sim.Config{})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	return out
}

func matchSlices(t *testing.T, got, want []float64, name string, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol*(1+math.Abs(want[i])) {
			t.Fatalf("%s[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
}

func TestAllSourcesParseAndAnalyze(t *testing.T) {
	srcs := map[string]string{
		"tomcatv":   TOMCATV(17, 2),
		"dgefa":     DGEFA(12),
		"appsp-1d":  APPSP(6, 8, 8, 2, false),
		"appsp-2d":  APPSP(6, 8, 8, 2, true),
		"histogram": Histogram(64, 16, 2),
		"dotsweep":  DotSweep(16, 12),
	}
	for name, s := range Figures {
		srcs[name] = s
	}
	for name, src := range srcs {
		ap, err := parser.Parse(src)
		if err != nil {
			t.Errorf("%s: parse: %v", name, err)
			continue
		}
		if _, err := core.BuildAndAnalyze(ap, 4, core.DefaultOptions()); err != nil {
			t.Errorf("%s: analyze: %v", name, err)
		}
	}
}

// TestReduceKernelNumerics: both reduce-sweep kernels produce the
// sequential reference under every runtime reduction strategy. The
// histogram accumulates integers (exact under any association); the
// dot-product sweep's float sums are compared with a tolerance because the
// privatized strategy legitimately reassociates them.
func TestReduceKernelNumerics(t *testing.T) {
	simulateReduce := func(src string, nprocs int, mode core.ReduceMode) *sim.Result {
		t.Helper()
		ap, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		res, err := core.BuildAndAnalyze(ap, nprocs, core.DefaultOptions())
		if err != nil {
			t.Fatalf("analyze: %v", err)
		}
		out, err := sim.Run(spmd.Generate(res), sim.Config{Reduce: mode})
		if err != nil {
			t.Fatalf("sim: %v", err)
		}
		return out
	}
	n, m, niter := 96, 16, 2
	wantH := HistogramRef(n, m, niter)
	wantR := DotSweepRef(24, 12)
	for _, mode := range []core.ReduceMode{core.ReduceCollective, core.ReduceAuto, core.ReducePrivatize} {
		out := simulateReduce(Histogram(n, m, niter), 4, mode)
		matchSlices(t, out.Arrays["h"], wantH, "h/"+mode.String(), 0)
		out = simulateReduce(DotSweep(24, 12), 4, mode)
		matchSlices(t, out.Arrays["r"], wantR, "r/"+mode.String(), 1e-12)
		priv := mode != core.ReduceCollective
		if priv && out.Stats.Merges == 0 {
			t.Errorf("%s: dotsweep ran without tree merges", mode)
		}
		if !priv && out.Stats.Merges != 0 {
			t.Errorf("%s: dotsweep merged %d times, want 0", mode, out.Stats.Merges)
		}
	}
}

func TestTOMCATVNumerics(t *testing.T) {
	n, niter := 17, 3
	wantX, wantY, wantRxm, wantRym := TOMCATVRef(n, niter)
	for _, strat := range []core.ScalarStrategy{
		core.ScalarsReplicated, core.ScalarsProducerAligned, core.ScalarsSelected,
	} {
		opts := core.DefaultOptions()
		opts.Scalars = strat
		out := simulate(t, TOMCATV(n, niter), 4, opts)
		matchSlices(t, out.Arrays["x"], wantX, "x/"+strat.String(), 1e-9)
		matchSlices(t, out.Arrays["y"], wantY, "y/"+strat.String(), 1e-9)
		if math.Abs(out.Scalars["rxm"]-wantRxm) > 1e-9 {
			t.Errorf("rxm = %v, want %v", out.Scalars["rxm"], wantRxm)
		}
		if math.Abs(out.Scalars["rym"]-wantRym) > 1e-9 {
			t.Errorf("rym = %v, want %v", out.Scalars["rym"], wantRym)
		}
	}
}

func TestDGEFANumerics(t *testing.T) {
	n := 16
	want := DGEFARef(n)
	for _, alignRed := range []bool{false, true} {
		opts := core.DefaultOptions()
		opts.AlignReductions = alignRed
		out := simulate(t, DGEFA(n), 4, opts)
		matchSlices(t, out.Arrays["a"], want, "a", 1e-9)
	}
}

func TestDGEFAPivotingActuallyHappens(t *testing.T) {
	// Sanity: the pivot search must move rows (the input is crafted so
	// that |a(k,k)| is not always maximal).
	n := 16
	ref := DGEFARef(n)
	// Recompute without pivoting; results must differ.
	idx := func(i, j int) int { return (j-1)*n + (i - 1) }
	a := make([]float64, n*n)
	mod := func(x, m int) int {
		r := x % m
		if r < 0 {
			r += m
		}
		return r
	}
	for j := 1; j <= n; j++ {
		for i := 1; i <= n; i++ {
			a[idx(i, j)] = float64(mod(i*7+j*3, 13)) - 6.0
		}
	}
	for i := 1; i <= n; i++ {
		a[idx(i, i)] += 13.5
	}
	for k := 1; k <= n-1; k++ {
		piv := a[idx(k, k)]
		if piv == 0 {
			continue
		}
		for i := k + 1; i <= n; i++ {
			a[idx(i, k)] = -a[idx(i, k)] / piv
		}
		for j := k + 1; j <= n; j++ {
			p := a[idx(k, j)]
			for i := k + 1; i <= n; i++ {
				a[idx(i, j)] += p * a[idx(i, k)]
			}
		}
	}
	same := true
	for i := range a {
		if math.Abs(a[i]-ref[i]) > 1e-9 {
			same = false
			break
		}
	}
	if same {
		t.Error("pivoting never triggered; the test matrix is too tame")
	}
}

func TestAPPSPNumerics1D(t *testing.T) {
	nx, ny, nz, niter := 6, 8, 8, 2
	want := APPSPRef(nx, ny, nz, niter)
	out := simulate(t, APPSP(nx, ny, nz, niter, false), 4, core.DefaultOptions())
	matchSlices(t, out.Arrays["v"], want, "v (1-D)", 1e-9)
}

func TestAPPSPNumerics2D(t *testing.T) {
	nx, ny, nz, niter := 6, 8, 8, 2
	want := APPSPRef(nx, ny, nz, niter)
	for _, partial := range []bool{false, true} {
		opts := core.DefaultOptions()
		opts.PartialPrivatization = partial
		out := simulate(t, APPSP(nx, ny, nz, niter, true), 4, opts)
		matchSlices(t, out.Arrays["v"], want, "v (2-D)", 1e-9)
	}
}

func TestAPPSP2DPartialPrivatizationApplied(t *testing.T) {
	ap, err := parser.Parse(APPSP(6, 8, 8, 1, true))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.BuildAndAnalyze(ap, 4, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	c := res.Prog.LookupVar("c")
	apv := res.Arrays[c]
	if apv == nil {
		t.Fatal("c not privatized under the 2-D distribution")
	}
	if !apv.Partial {
		t.Errorf("c privatization = %+v, want partial", apv)
	}
}

func TestAPPSP1DFullPrivatizationApplied(t *testing.T) {
	ap, err := parser.Parse(APPSP(6, 8, 8, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.BuildAndAnalyze(ap, 4, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	c := res.Prog.LookupVar("c")
	apv := res.Arrays[c]
	if apv == nil {
		t.Fatal("c not privatized under the 1-D distribution")
	}
	if apv.Partial {
		t.Errorf("c privatization = %+v, want full", apv)
	}
}

// TestTOMCATVStrategyOrdering: the Table 1 shape at a small size.
func TestTOMCATVStrategyOrdering(t *testing.T) {
	src := TOMCATV(33, 2)
	times := map[core.ScalarStrategy]float64{}
	for _, strat := range []core.ScalarStrategy{
		core.ScalarsReplicated, core.ScalarsProducerAligned, core.ScalarsSelected,
	} {
		opts := core.DefaultOptions()
		opts.Scalars = strat
		if strat == core.ScalarsReplicated {
			opts.AlignReductions = false
		}
		times[strat] = simulate(t, src, 8, opts).Time
	}
	if !(times[core.ScalarsSelected] < times[core.ScalarsProducerAligned] &&
		times[core.ScalarsProducerAligned] < times[core.ScalarsReplicated]) {
		t.Errorf("ordering violated: repl=%v producer=%v selected=%v",
			times[core.ScalarsReplicated], times[core.ScalarsProducerAligned],
			times[core.ScalarsSelected])
	}
}

// TestDGEFAAlignmentHelps: the Table 2 shape.
func TestDGEFAAlignmentHelps(t *testing.T) {
	src := DGEFA(48)
	optsDefault := core.DefaultOptions()
	optsDefault.AlignReductions = false
	tDefault := simulate(t, src, 8, optsDefault).Time
	tAligned := simulate(t, src, 8, core.DefaultOptions()).Time
	if tAligned >= tDefault {
		t.Errorf("aligned (%v) should beat default (%v)", tAligned, tDefault)
	}
}

// TestAPPSPPrivatizationHelps: the Table 3 shapes at a small size.
func TestAPPSPPrivatizationHelps(t *testing.T) {
	src2d := APPSP(6, 12, 12, 1, true)
	optsNoPartial := core.DefaultOptions()
	optsNoPartial.PartialPrivatization = false
	tNoPartial := simulate(t, src2d, 4, optsNoPartial).Time
	tPartial := simulate(t, src2d, 4, core.DefaultOptions()).Time
	if tPartial >= tNoPartial {
		t.Errorf("partial privatization (%v) should beat none (%v)", tPartial, tNoPartial)
	}

	src1d := APPSP(6, 12, 12, 1, false)
	optsNoPriv := core.DefaultOptions()
	optsNoPriv.PrivatizeArrays = false
	tNoPriv := simulate(t, src1d, 4, optsNoPriv).Time
	tPriv := simulate(t, src1d, 4, core.DefaultOptions()).Time
	if tPriv >= tNoPriv {
		t.Errorf("array privatization (%v) should beat none (%v)", tPriv, tNoPriv)
	}
}

// TestReferencesBitForBit: every sequential reference transcribes its source
// exactly — the same operations, associated the same way — so the simulator
// reproduces it bit for bit, at the sizes and processor counts bench/ runs,
// under the default reduction strategy and the collective one. The numerics
// tests above allow a tolerance; a transcription that drifts from its source
// by an ulp shows here.
func TestReferencesBitForBit(t *testing.T) {
	naive, producer, noPriv := core.DefaultOptions(), core.DefaultOptions(), core.DefaultOptions()
	naive.Scalars, naive.AlignReductions = core.ScalarsReplicated, false
	producer.Scalars = core.ScalarsProducerAligned
	noPriv.PrivatizeArrays = false
	x, y, rxm, rym := TOMCATVRef(65, 3)
	tomcatv := map[string][]float64{"x": x, "y": y, "rxm": {rxm}, "rym": {rym}}
	appsp := map[string][]float64{"v": APPSPRef(12, 12, 12, 2)}
	for _, c := range []struct {
		name   string
		src    string
		nprocs int
		opts   core.Options
		want   map[string][]float64
	}{
		{"tomcatv(65,3)/naive", TOMCATV(65, 3), 16, naive, tomcatv},
		{"tomcatv(65,3)/producer", TOMCATV(65, 3), 16, producer, tomcatv},
		{"tomcatv(65,3)/selected", TOMCATV(65, 3), 16, core.DefaultOptions(), tomcatv},
		{"dgefa(96)", DGEFA(96), 16, core.DefaultOptions(), map[string][]float64{"a": DGEFARef(96)}},
		{"dgefa(48)", DGEFA(48), 4, core.DefaultOptions(), map[string][]float64{"a": DGEFARef(48)}},
		{"appsp(12,12,12,2)/1-d no-priv", APPSP(12, 12, 12, 2, false), 16, noPriv, appsp},
		{"appsp(12,12,12,2)/2-d", APPSP(12, 12, 12, 2, true), 16, core.DefaultOptions(), appsp},
		{"histogram(256,32,4)", Histogram(256, 32, 4), 4, core.DefaultOptions(), map[string][]float64{"h": HistogramRef(256, 32, 4)}},
		{"dotsweep(48,24)", DotSweep(48, 24), 4, core.DefaultOptions(), map[string][]float64{"r": DotSweepRef(48, 24)}},
	} {
		ap, err := parser.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", c.name, err)
		}
		res, err := core.BuildAndAnalyze(ap, c.nprocs, c.opts)
		if err != nil {
			t.Fatalf("%s: analyze: %v", c.name, err)
		}
		prog := spmd.Generate(res)
		for _, mode := range []core.ReduceMode{core.ReduceAuto, core.ReduceCollective} {
			out, err := sim.Run(prog, sim.Config{Reduce: mode})
			if err != nil {
				t.Fatalf("%s/%s: sim: %v", c.name, mode, err)
			}
			for name, want := range c.want {
				got := out.Arrays[name]
				if got == nil {
					got = []float64{out.Scalars[name]}
				}
				if len(got) != len(want) {
					t.Fatalf("%s/%s: %s has %d values, want %d", c.name, mode, name, len(got), len(want))
				}
				differ := 0
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						differ++
					}
				}
				if differ > 0 {
					t.Errorf("%s/%s: %d of %d values of %s differ from the reference", c.name, mode, differ, len(want), name)
				}
			}
		}
	}
}
