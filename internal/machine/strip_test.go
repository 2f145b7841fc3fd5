package machine

import (
	"fmt"
	"math"
	"testing"

	"phpf/internal/dist"
	"phpf/internal/fault"
	"phpf/internal/trace"
)

// listed is one charge of a strip: a set, its processors as a list, a cost.
type listed struct {
	set   dist.ProcSet
	procs []int32
	t     float64
}

func list(set dist.ProcSet, t float64) listed {
	var procs []int32
	set.Each(func(p int) { procs = append(procs, int32(p)) })
	return listed{set, procs, t}
}

// stripCases are charge lists over P processors whose sums show any
// regrouping: 3 + 1e16 is 1e16 + 4, so n threes ahead of the first 1e16 (one
// charge n times before the next) or 3·n at once (a product) leave other bits
// than the rounds do. Lists overlap (a guard names every processor, rows and
// columns of a grid meet), one charge costs nothing, and a processor may be
// named by none.
func stripCases(P int) []listed {
	g := grid(P)
	all := dist.AllProcs(g)
	first, last := all.WithDim(0, 0), all.WithDim(0, g.Shape[0]-1)
	if len(g.Shape) > 1 {
		first = first.WithDim(1, 1) // a row and a column: they meet in one processor
		last = all.WithDim(1, 2)
	}
	return []listed{
		list(all, 3),      // a guard
		list(first, 1e16), // a compute
		list(all, 0),      // a compute of no flops
		list(last, 1),
		list(first, 1),
		list(all, 0.5e-6),
	}
}

// grid is a grid of P processors: 16 as 4×4, any other count in a line.
func grid(P int) *dist.Grid {
	if P == 16 {
		return dist.NewGrid(4, 4)
	}
	return dist.NewGrid(P)
}

// withClocks is a machine over grid(P) whose clocks differ from the start.
func withClocks(P int) *Machine {
	m := New(grid(P), SP2())
	for p := range m.Clock {
		m.Clock[p] = float64(p) * 0.375
	}
	return m
}

// rounds is what ComputeStrip stands for: n rounds of Compute.
func rounds(m *Machine, cs []listed, n int64) {
	for ; n > 0; n-- {
		for _, c := range cs {
			m.Compute(c.set, c.t)
		}
	}
}

func strip(m *Machine, cs []listed, n int64) bool {
	return m.ComputeStrip(n, len(cs), func(i int) ([]int32, float64) { return cs[i].procs, cs[i].t })
}

func sameClocks(a, b []float64) bool {
	for p := range a {
		if math.Float64bits(a[p]) != math.Float64bits(b[p]) {
			return false
		}
	}
	return true
}

// TestComputeStripIsTheRounds holds the strip to the rounds, clock by clock
// and bit for bit, and the cases to showing it: a strip that multiplied a cost
// by n, or charged each charge n times before the next, would read other bits
// on some clock at every processor count.
func TestComputeStripIsTheRounds(t *testing.T) {
	for _, P := range []int{1, 3, 16} {
		cs := stripCases(P)
		for _, n := range []int64{1, 2, 31, 32, 33} {
			t.Run(fmt.Sprintf("P=%d/n=%d", P, n), func(t *testing.T) {
				want, got := withClocks(P), withClocks(P)
				rounds(want, cs, n)
				if !strip(got, cs, n) {
					t.Fatal("no recorder, no slowdowns, and still not one operation")
				}
				if !sameClocks(got.Clock, want.Clock) {
					t.Errorf("clocks %v, the rounds leave %v", got.Clock, want.Clock)
				}
			})
		}
	}
	for _, P := range []int{1, 3, 16} {
		cs := stripCases(P)
		want, product, chargeMajor := withClocks(P), withClocks(P), withClocks(P)
		rounds(want, cs, 33)
		for _, c := range cs {
			rounds(product, []listed{{c.set, c.procs, c.t * 33}}, 1)
			rounds(chargeMajor, []listed{c}, 33)
		}
		if sameClocks(product.Clock, want.Clock) || sameClocks(chargeMajor.Clock, want.Clock) {
			t.Errorf("P=%d: the cases cannot tell the rounds from their regroupings", P)
		}
	}
}

// TestComputeStripDeclines: with a recorder or slowdowns attached the rounds
// must be made one Compute at a time, and the strip charges nothing.
func TestComputeStripDeclines(t *testing.T) {
	rec := withClocks(3)
	rec.Rec = trace.New(3, 1, trace.Options{})
	slow := withClocks(3)
	slow.Fault = fault.NewInjector(&fault.Plan{Slowdowns: []fault.Slowdown{{Proc: 1, Factor: 2, Duration: 1}}})
	for name, m := range map[string]*Machine{"recorder": rec, "slowdowns": slow} {
		if strip(m, stripCases(3), 2) || !sameClocks(m.Clock, withClocks(3).Clock) {
			t.Errorf("%s: the strip was taken, or charged %v", name, m.Clock)
		}
	}
}
