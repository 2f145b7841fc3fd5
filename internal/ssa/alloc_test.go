package ssa

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"phpf/internal/programs"
)

// raceEnabled is set under the race detector (race_test.go), whose
// instrumentation may allocate: no allocation count is checked then.
var raceEnabled bool

// corpus is every figure and kernel the paper's tables compile.
func corpus() map[string]string {
	srcs := map[string]string{
		"tomcatv": programs.TOMCATV(65, 3), "dgefa": programs.DGEFA(96),
		"appsp_1d": programs.APPSP(12, 12, 12, 2, false), "appsp_2d": programs.APPSP(12, 12, 12, 2, true),
		"smooth": programs.Smooth(64, 4), "histogram": programs.Histogram(256, 32, 4), "dotsweep": programs.DotSweep(48, 24),
	}
	for name, src := range programs.Figures {
		srcs[name] = src
	}
	return srcs
}

// TestSSABuildDeterministic: two builds over one CFG make the same values —
// IDs, versions, phi arguments, and every list of uses and phi uses in the
// same order — for every figure and kernel.
func TestSSABuildDeterministic(t *testing.T) {
	ids := func(vs []*Value) []int {
		out := make([]int, len(vs))
		for i, v := range vs {
			out[i] = -1
			if v != nil {
				out[i] = v.ID
			}
		}
		return out
	}
	for name, src := range corpus() {
		p, a := buildSSA(t, src)
		b := Build(p, a.CFG)
		if len(a.Values) != len(b.Values) {
			t.Fatalf("%s: %d values, then %d", name, len(a.Values), len(b.Values))
		}
		for i, x := range a.Values {
			y := b.Values[i]
			if x.ID != i || y.ID != i || x.String() != y.String() || x.Version != y.Version ||
				!slices.Equal(ids(x.Args), ids(y.Args)) || !slices.Equal(x.UseRefs, y.UseRefs) ||
				!slices.Equal(ids(x.UsePhis), ids(y.UsePhis)) {
				t.Errorf("%s: value %d is %v (args %v, uses %v, phi uses %v), then %v (args %v, uses %v, phi uses %v)",
					name, i, x, ids(x.Args), x.UseRefs, ids(x.UsePhis), y, ids(y.Args), y.UseRefs, ids(y.UsePhis))
			}
		}
	}
}

// TestBuildAllocs caps what ssa.Build allocates over TOMCATV(65,3)'s CFG:
// the count measured when the construction was laid out in arrays counted
// before anything is allocated (three slabs of int32, the values, one slab
// of value pointers, the use lists, the two maps) plus 3 %, so a working set
// that goes back to one allocation per variable or per block fails here.
func TestBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not checked under the race detector")
	}
	const measured = 26
	p, s := buildSSA(t, programs.TOMCATV(65, 3))
	allocs := testing.AllocsPerRun(5, func() { Build(p, s.CFG) })
	t.Logf("ssa.Build(TOMCATV(65,3)): %.0f allocations (measured %d)", allocs, measured)
	if allocs > measured*1.03 {
		t.Errorf("ssa.Build allocates %.0f times on TOMCATV(65,3), over 103 %% of the %d measured", allocs, measured)
	}
}

// manyScalars is a program of n scalars, each assigned once and read once in
// one loop body: the shape a large generated source has.
func manyScalars(n int) string {
	var b strings.Builder
	b.WriteString("program many\nreal a(8)\ninteger i\n")
	for k := range n {
		fmt.Fprintf(&b, "real s%d\n", k)
	}
	b.WriteString("do i = 1, 8\n  s0 = a(i)\n")
	for k := 1; k < n; k++ {
		fmt.Fprintf(&b, "  s%d = s%d + 1.0\n", k, k-1)
	}
	fmt.Fprintf(&b, "  a(i) = s%d\nend do\nend\n", n-1)
	return b.String()
}

// TestBuildLinearInScalars: construction time grows with the program, not
// with its scalars times its statements. Eight times the scalars (and so the
// statements) must cost under 40 times as much, where a search per variable
// or a rescan of the statements per variable costs over 100 times (measured);
// the fastest of five builds of each size is compared.
func TestBuildLinearInScalars(t *testing.T) {
	fastest := func(n int) time.Duration {
		p, s := buildSSA(t, manyScalars(n))
		best := time.Duration(math.MaxInt64)
		for range 5 {
			start := time.Now()
			Build(p, s.CFG)
			best = min(best, time.Since(start))
		}
		return best
	}
	small, large := fastest(1000), fastest(8000)
	t.Logf("ssa.Build: %v for 1000 scalars, %v for 8000", small, large)
	if large > 40*small {
		t.Errorf("ssa.Build takes %v for 8000 scalars, over 40 times the %v for 1000", large, small)
	}
}
