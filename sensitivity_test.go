package phpf

// Sensitivity tests: the reproduced orderings must not be artifacts of one
// particular machine-parameter point. Each claim is re-checked under
// faster/slower networks and CPUs.

import (
	"context"
	"testing"

	"phpf/internal/programs"
)

func machineVariants() map[string]MachineParams {
	base := SP2Params()
	fastNet := base
	fastNet.Latency /= 4
	fastNet.Bandwidth *= 4
	slowNet := base
	slowNet.Latency *= 4
	slowNet.Bandwidth /= 4
	fastCPU := base
	fastCPU.FlopTime /= 8
	noGuard := base
	noGuard.GuardTime = 0
	return map[string]MachineParams{
		"sp2":      base,
		"fast-net": fastNet,
		"slow-net": slowNet,
		"fast-cpu": fastCPU,
		"no-guard": noGuard,
	}
}

func timeWith(t *testing.T, src string, procs int, opts Options, p MachineParams) float64 {
	t.Helper()
	c, err := Compile(src, procs, opts)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Execute(context.Background(), Simulator(), RunOptions{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	return out.Time
}

// TestTable1OrderingRobust: replication > producer > selected on TOMCATV
// under every machine variant.
func TestTable1OrderingRobust(t *testing.T) {
	src := programs.TOMCATV(33, 2)
	for name, p := range machineVariants() {
		repl := timeWith(t, src, 8, NaiveOptions(), p)
		prod := timeWith(t, src, 8, ProducerOptions(), p)
		sel := timeWith(t, src, 8, SelectedOptions(), p)
		if !(sel < prod && prod < repl) {
			t.Errorf("%s: ordering violated: repl=%v prod=%v sel=%v", name, repl, prod, sel)
		}
	}
}

// TestTable3OrderingRobust: privatization beats no-privatization on APPSP
// under every machine variant.
func TestTable3OrderingRobust(t *testing.T) {
	src := programs.APPSP(6, 12, 12, 1, true)
	noPartial := SelectedOptions()
	noPartial.PartialPrivatization = false
	for name, p := range machineVariants() {
		off := timeWith(t, src, 4, noPartial, p)
		on := timeWith(t, src, 4, SelectedOptions(), p)
		if on >= off {
			t.Errorf("%s: partial privatization (%v) should beat none (%v)", name, on, off)
		}
	}
}

// TestSelectedScalesEverywhere: the optimized compiler gives speedups from
// 1 to 16 processors under every variant, on a problem large enough that
// computation dominates (tiny problems on slow networks are legitimately
// latency-bound at 16 processors — also true on the real SP2).
func TestSelectedScalesEverywhere(t *testing.T) {
	src := programs.TOMCATV(129, 2)
	for name, p := range machineVariants() {
		t1 := timeWith(t, src, 1, SelectedOptions(), p)
		t16 := timeWith(t, src, 16, SelectedOptions(), p)
		if t16 >= t1 {
			t.Errorf("%s: no speedup: t1=%v t16=%v", name, t1, t16)
		}
	}
}
