package machine

import (
	"fmt"
	"math"
	"testing"

	"phpf/internal/dist"
	"phpf/internal/fault"
	"phpf/internal/trace"
)

// listed is one charge of a strip: a set, its processors as a list, a cost —
// or, from ≥ 0, the transfer of an element from processor from to the set:
// to the processor to (a Send), or, to < 0, to the list, from excluded (a
// Multicast).
type listed struct {
	set      dist.ProcSet
	procs    []int32
	t        float64
	from, to int
}

func list(set dist.ProcSet, t float64) listed {
	return listed{set, set.Append(nil, -1), t, -1, -1}
}

// send is a transfer to the one processor to.
func send(g *dist.Grid, from, to int) listed {
	return listed{only(g, to), nil, 0, from, to}
}

// multicast is a transfer to set.
func multicast(set dist.ProcSet, from int) listed {
	return listed{set, set.Append(nil, from), 0, from, -1}
}

// only is the set of processor p alone, on a grid of any rank.
func only(g *dist.Grid, p int) dist.ProcSet {
	set := dist.AllProcs(g)
	for d := len(g.Shape) - 1; d >= 0; d-- {
		set = set.WithDim(d, p%g.Shape[d])
		p /= g.Shape[d]
	}
	return set
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

// rounds is what ComputeStrip stands for: n rounds of Compute, Send and
// Multicast.
func rounds(m *Machine, cs []listed, n int64) {
	for ; n > 0; n-- {
		for _, c := range cs {
			switch {
			case c.from < 0:
				m.Compute(c.set, c.t)
			case c.to >= 0:
				m.Send(c.from, c.to, m.Params.ElemBytes)
			default:
				m.Multicast(c.from, c.set, m.Params.ElemBytes)
			}
		}
	}
}

// strip makes the rounds as one operation, from the charges' lists.
func strip(m *Machine, cs []listed, n int64) bool {
	var charges []Listed
	var procs []int32
	for _, c := range cs {
		charges = append(charges, Listed{T: c.t, From: int32(c.from), To: int32(c.to),
			Lo: int32(len(procs)), N: int32(len(c.procs))})
		procs = append(procs, c.procs...)
	}
	return m.ComputeStrip(n, charges, procs)
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
			rounds(product, []listed{{c.set, c.procs, c.t * 33, -1, -1}}, 1)
			rounds(chargeMajor, []listed{c}, 33)
		}
		if sameClocks(product.Clock, want.Clock) || sameClocks(chargeMajor.Clock, want.Clock) {
			t.Errorf("P=%d: the cases cannot tell the rounds from their regroupings", P)
		}
	}
}

// transferCases are charge lists over P processors that mix transfers into
// computes: guards, computes (one of no cost), a send to another processor, a
// local delivery (from = to: a message, no clock), a multicast from inside
// its destinations and one from outside, and one with no destination left
// once from is excluded. On one processor every transfer is local or empty.
// A destination the multicast holds back in every round but the first shows
// a synchronization taken once for all of them.
func transferCases(P int) []listed {
	g := grid(P)
	all, last := dist.AllProcs(g), P-1
	outside := only(g, 0) // destinations that leave out last
	if P == 16 {
		outside = all.WithDim(0, 0) // a row: 0..3
	}
	return []listed{
		list(all, 0.5e-6), // a guard
		send(g, last, 0),
		list(only(g, 0), 3e-6),
		send(g, last/2, last/2),
		multicast(all, last),              // the latest clock: the destinations wait for it
		list(only(g, min(1, last)), 1e-3), // ... and one, once it has, runs ahead
		list(all, 0),
		multicast(outside, last),
		list(all, 0.5e-6),
		multicast(only(g, last), last),
		list(only(g, last), 1.25e-5),
	}
}

// TestComputeStripTransfers holds a strip with transfers to its rounds of
// Compute, Send and Multicast: every clock to the bit and every Stats field.
// A strip that took a multicast's synchronization (its max) once for all the
// rounds, or counted a message once per strip, would read otherwise from two
// rounds on.
func TestComputeStripTransfers(t *testing.T) {
	for _, P := range []int{1, 3, 16} {
		cs := transferCases(P)
		for _, n := range []int64{1, 2, 31, 32, 33} {
			t.Run(fmt.Sprintf("P=%d/n=%d", P, n), func(t *testing.T) {
				want, got := withClocks(P), withClocks(P)
				rounds(want, cs, n)
				if !strip(got, cs, n) {
					t.Fatal("no recorder, no faults, and still not one operation")
				}
				if !sameClocks(got.Clock, want.Clock) {
					t.Errorf("clocks %v, the rounds leave %v", got.Clock, want.Clock)
				}
				if got.Stats != want.Stats {
					t.Errorf("stats %+v, the rounds count %+v", got.Stats, want.Stats)
				}
			})
		}
	}
}

// TestComputeStripDeclines: with a recorder, slowdowns or a fault injector
// attached the rounds must be made one Compute, Send or Multicast at a time,
// and the strip charges nothing.
func TestComputeStripDeclines(t *testing.T) {
	rec := withClocks(3)
	rec.Rec = trace.New(3, 1, trace.Options{})
	slow := withClocks(3)
	slow.Fault = fault.NewInjector(&fault.Plan{Slowdowns: []fault.Slowdown{{Proc: 1, Factor: 2, Duration: 1}}})
	lossy := withClocks(3)
	lossy.Fault = fault.NewInjector(&fault.Plan{Seed: 1, LossRate: 0.5})
	for name, m := range map[string]*Machine{"recorder": rec, "slowdowns": slow, "faults": lossy} {
		if strip(m, transferCases(3), 2) || !sameClocks(m.Clock, withClocks(3).Clock) || m.Stats != (Stats{}) {
			t.Errorf("%s: the strip was taken, or charged %v", name, m.Clock)
		}
	}
}
