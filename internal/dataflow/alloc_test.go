package dataflow

import (
	"testing"

	"phpf/internal/ir"
	"phpf/internal/parser"
	"phpf/internal/programs"
	"phpf/internal/ssa"
)

// raceEnabled is set under the race detector (race_test.go), whose
// instrumentation may allocate: no allocation count is checked then.
var raceEnabled bool

// TestClassifyPrivatizationAllocs caps what ClassifyPrivatization allocates
// on TOMCATV(65,3): the count measured when the liveness test became one
// reachability bitset per classified loop over Block.ID, plus 3 %, so a
// per-read set or worklist coming back fails here. Each run classifies over
// an SSA of its own, since the SSA keeps the def-use answers it was asked.
func TestClassifyPrivatizationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not checked under the race detector")
	}
	const measured = 209
	ap, err := parser.Parse(programs.TOMCATV(65, 3))
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Build(ap)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ir.BuildCFG(p)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 5
	var ss []*ssa.SSA
	var cps []*ConstProp
	var reds [][]*Reduction
	for range runs + 1 { // AllocsPerRun's warm-up run, then the counted ones
		s := ssa.Build(p, g)
		ss, cps, reds = append(ss, s), append(cps, PropagateConstants(s)), append(reds, FindReductions(p, s))
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		ClassifyPrivatization(p, g, ss[i], cps[i], reds[i])
		i++
	})
	t.Logf("ClassifyPrivatization(TOMCATV(65,3)): %.0f allocations (measured %d)", allocs, measured)
	if allocs > measured*1.03 {
		t.Errorf("ClassifyPrivatization allocates %.0f times on TOMCATV(65,3), over 103 %% of the %d measured", allocs, measured)
	}
}
