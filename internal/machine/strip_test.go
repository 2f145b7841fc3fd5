package machine

import (
	"fmt"
	"math"
	"slices"
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

// leaps is strip, and whether ComputeStrip leapt.
func leaps(m *Machine, cs []listed, n int64) (ok, leapt bool) {
	defer func(old func([]Listed, int64, bool)) { stripped = old }(stripped)
	stripped = func(_ []Listed, _ int64, l bool) { leapt = l }
	return strip(m, cs, n), leapt
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
// rounds on. On more than one processor the strips of more than two rounds
// leap: the first multicast synchronizes every clock from round 1 on. On one,
// every transfer is local and the computations carry the clock out of its
// binade.
func TestComputeStripTransfers(t *testing.T) {
	for _, P := range []int{1, 3, 16} {
		cs := transferCases(P)
		for _, n := range []int64{1, 2, 3, 31, 32, 33} {
			t.Run(fmt.Sprintf("P=%d/n=%d", P, n), func(t *testing.T) {
				want, got := withClocks(P), withClocks(P)
				rounds(want, cs, n)
				ok, leapt := leaps(got, cs, n)
				if !ok {
					t.Fatal("no recorder, no faults, and still not one operation")
				}
				if leapt != (P > 1 && n > 2) {
					t.Errorf("leapt %v", leapt)
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

// leapCase is a strip over P processors from named clocks: the clocks it
// starts from, its charges, the machine's parameters (zero: SP2's) and, where
// set, whether the strip of n rounds must leap.
type leapCase struct {
	name   string
	clocks func(P int) []float64
	cs     func(g *dist.Grid) []listed
	params Params
	leaps  func(P int, n int64) bool
}

// ulp is the grid of the binade x lies in.
func ulp(x float64) float64 { return math.Nextafter(x, math.Inf(1)) - x }

// clocksAt sets processor p's clock to at[p], every other clock to other.
func clocksAt(other float64, at map[int]float64) func(P int) []float64 {
	return func(P int) []float64 {
		c := make([]float64, P)
		for p := range c {
			c[p] = other
			if v, ok := at[p]; ok {
				c[p] = v
			}
		}
		return c
	}
}

// leapCases are the edges of the leap's proof, each a strip the leap must
// decline or leap to the rounds' own bits. Of computations only: a clock of 0
// (no binade), a clock
// three ulps below a power of two that a cost of one and a quarter of its ulps
// brings to it in the third round and carries above it after (where the same
// cost rounds to a whole ulp of the next binade: twice as much), a clock that
// crosses a power of two near the hundredth round, a clock at one, ties (an
// odd multiple of half an ulp, which round-half-even rounds by the clock's
// last bit: one ulp more from an odd clock in the first round, none from an
// even one), and a cost below half an ulp, which moves the clock 10^6 by
// nothing while it moves the others. With transfers: a multicast that
// synchronizes every clock from round 1 on (it leaps, however long); a send
// that loses its max to a clock moving by a smaller D until about round 14,
// when it wins (it leaps 3 rounds and no more); a multicast that overtakes
// its receiver in round 2, which then carries a source moving by another D
// than the receiver's round 2 measured (it must decline); a multicast whose
// done lies above 2^-2 while its sender stays below, where each done is a tie
// on its grid that round-half-even settles up and down in turn, and whose
// receiver starts just where the second done raises it by the sender's own D
// (it must decline, or the receiver ends an ulp off); and a send whose
// receiver adds a tie on the grid of the value it received (it must decline).
func leapCases() []leapCase {
	sp2, below := SP2(), math.Ldexp(1, -3)
	u := ulp(math.Nextafter(below, 0))
	quarter := math.Ldexp(1, -2)
	v := ulp(math.Nextafter(quarter, 0)) // the grid below 2^-2: done's is 2v
	never := func(int, int64) bool { return false }
	flops := func(g *dist.Grid) []listed {
		all := dist.AllProcs(g)
		return []listed{list(all, sp2.GuardTime), list(only(g, 0), 2*sp2.FlopTime), list(all, 3*sp2.FlopTime)}
	}
	return []leapCase{
		{"zero clock", clocksAt(1.5e-3, map[int]float64{0: 0}), flops, Params{}, nil},
		{"few ulps below 2^-3", clocksAt(below-3*u, nil), func(g *dist.Grid) []listed {
			return []listed{list(dist.AllProcs(g), 1.25*u)}
		}, Params{}, nil},
		{"crossing 2^-3 near round 100", clocksAt(0.75e-3, map[int]float64{0: below - 100*(sp2.GuardTime+2*sp2.FlopTime+3*sp2.FlopTime)}), flops, Params{}, nil},
		{"at 2^-7", clocksAt(math.Ldexp(1, -7), map[int]float64{2: 2.5e-2}), flops, Params{}, nil},
		{"tie on an odd clock", clocksAt(1+ulp(1), nil), func(g *dist.Grid) []listed {
			return []listed{list(dist.AllProcs(g), 1.5*ulp(1))}
		}, Params{}, nil},
		{"tie on an even clock", clocksAt(1, nil), func(g *dist.Grid) []listed {
			return []listed{list(dist.AllProcs(g), 0.5*ulp(1)), list(only(g, 0), 3*ulp(1))}
		}, Params{}, nil},
		{"below half an ulp", clocksAt(2.5e-3, map[int]float64{0: 1e6}), func(g *dist.Grid) []listed {
			return []listed{list(dist.AllProcs(g), 0.4*ulp(1e6)), list(dist.AllProcs(g), 0)}
		}, Params{}, nil},
		{"steady multicast", func(P int) []float64 {
			c := make([]float64, P)
			for p := range c {
				c[p] = 4 + float64(p)*1e-6
			}
			return c
		}, func(g *dist.Grid) []listed {
			all := dist.AllProcs(g)
			return []listed{list(all, sp2.GuardTime), multicast(all, g.Size()-1), list(only(g, 0), 2*sp2.FlopTime)}
		}, Params{}, func(int, int64) bool { return true }},
		{"winner flips near round 14", func(P int) []float64 {
			return clocksAt(0.3, map[int]float64{P - 1: 0.3 + 200e-6})(P)
		}, func(g *dist.Grid) []listed {
			last := g.Size() - 1
			return []listed{list(only(g, 0), 3e-6), list(only(g, last), 1e-6), send(g, 0, last)}
		}, Params{}, func(P int, n int64) bool { return P == 1 || n == 3 }},
		{"overtaken in round 2", func(P int) []float64 {
			return clocksAt(0.2, map[int]float64{0: 0.3, P - 1: 0.3 + 60e-6})(P)
		}, func(g *dist.Grid) []listed {
			return []listed{list(only(g, 0), 5e-6), multicast(only(g, g.Size()-1), 0)}
		}, Params{}, func(P int, _ int64) bool { return P == 1 }},
		{"done above 2^-2, its sender below", func(P int) []float64 {
			return clocksAt(0.2, map[int]float64{0: quarter - 802*v, P - 1: quarter + 206*v})(P)
		}, func(g *dist.Grid) []listed {
			return []listed{multicast(only(g, g.Size()-1), 0)}
		}, Params{Latency: 1001 * v, Overhead: 6 * v, Bandwidth: 8e300, FlopTime: 1, ElemBytes: 8},
			func(P int, _ int64) bool { return P == 1 }},
		{"tie on a receiver's grid", func(P int) []float64 {
			return clocksAt(0.75, map[int]float64{0: 1 + 3*ulp(1)})(P)
		}, func(g *dist.Grid) []listed {
			last := g.Size() - 1
			return []listed{list(only(g, 0), ulp(1)), send(g, 0, last), list(only(g, last), 1.5*ulp(1))}
		}, Params{}, never},
	}
}

// TestComputeStripLeapEdges holds the leaped strip to its rounds, every clock
// to the bit and every Stats field, on each edge of the proof, and pins where
// it leaps: a strip that leapt over a tie, out of a value's binade or past a
// max whose winner changes would read otherwise.
func TestComputeStripLeapEdges(t *testing.T) {
	for _, c := range leapCases() {
		params := c.params
		if params == (Params{}) {
			params = SP2()
		}
		for _, P := range []int{1, 3, 16} {
			for _, n := range []int64{3, 10000} {
				t.Run(fmt.Sprintf("%s/P=%d/n=%d", c.name, P, n), func(t *testing.T) {
					want, got := New(grid(P), params), New(grid(P), params)
					copy(want.Clock, c.clocks(P))
					copy(got.Clock, want.Clock)
					cs := c.cs(grid(P))
					rounds(want, cs, n)
					ok, leapt := leaps(got, cs, n)
					if !ok {
						t.Fatal("no recorder, no faults, and still not one operation")
					}
					if c.leaps != nil && leapt != c.leaps(P, n) {
						t.Errorf("leapt %v", leapt)
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
}

// fuzzBytes deals a fuzz input out a byte at a time, zeros once it runs out.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// bits is n random low bits.
func (b *fuzzBytes) bits(n int) uint64 {
	var v uint64
	for i := 0; i < n; i += 8 {
		v = v<<8 | uint64(b.next())
	}
	return v & (1<<n - 1)
}

// clock is 0, a few ulps below 2^-k, 2^-k, uniform over the floats of
// [2^-k, 2^(1-k)), or up to 2048 ulps below or above 2^-k, k within 3 of the
// case's scale.
func (b *fuzzBytes) clock(scale int) float64 {
	kind, pow := b.next()%6, math.Ldexp(1, -scale-b.next()%4)
	switch kind {
	case 0:
		return 0
	case 1:
		return pow - float64(1+b.next()%4)*ulp(math.Nextafter(pow, 0))
	case 2:
		return pow
	case 4:
		return pow - float64(1+b.bits(11))*ulp(math.Nextafter(pow, 0))
	case 5:
		return pow + float64(b.bits(11))*ulp(pow)
	}
	return math.Float64frombits(math.Float64bits(pow) | b.bits(52))
}

// cost is 0, an odd multiple of 2^-j near the case's scale (a tie on the
// grid of the clocks of one binade), an SP2 flop or guard cost, or uniform in
// [0, 1e-3).
func (b *fuzzBytes) cost(scale int) float64 {
	switch b.next() % 4 {
	case 0:
		return 0
	case 1:
		return float64(2*(b.next()%8)+1) * math.Ldexp(1, -scale-50-b.next()%8)
	case 2:
		sp2 := SP2()
		if b.next()%2 == 0 {
			return float64(1+b.next()%8) * sp2.FlopTime
		}
		return sp2.GuardTime
	}
	return 1e-3 * float64(b.bits(16)) / (1 << 16)
}

// set is every processor of g, one, or, on the 4×4 grid, a row or a column.
func (b *fuzzBytes) set(g *dist.Grid) dist.ProcSet {
	all := dist.AllProcs(g)
	switch b.next() % 4 {
	case 0:
		return all
	case 1:
		if len(g.Shape) > 1 {
			return all.WithDim(b.next()%2, b.next()%g.Shape[0])
		}
	}
	return only(g, b.next()%g.Size())
}

// fuzzSeeds are FuzzComputeStrip's seed corpus: three mixed cases, three
// steady strips of more than two rounds — a send and two multicasts — that
// leap (TestFuzzSeedsLeap), and a multicast on a machine on its clocks' grid
// that must not.
var fuzzSeeds = [][]byte{
	{3, 1, 20, 2, 2, 0, 1, 0, 2, 0, 7, 0, 200},
	{15, 2, 4, 1, 4, 2, 3, 1, 1, 3, 3, 0, 0, 2, 1, 5, 1, 2, 0, 255},
	{2, 3, 60, 9, 9, 1, 6, 8, 0, 1, 1, 53, 1, 1, 5, 2, 100},
	{2, 128, 0, 63, 249, 223, 123, 235, 241, 78, 16, 12, 249, 22, 145, 164, 147, 229},
	{2, 183, 0, 191, 19, 234, 11, 58, 142, 186, 212, 160, 130, 56, 23, 252, 170, 180},
	{2, 117, 0, 47, 209, 164, 158, 216, 50, 246, 158, 110, 156, 99, 180, 83, 236, 4},
	// TestComputeStripLeapEdges' "done above 2^-2, its sender below" at P=2.
	{1, 6, 1, 3, 232, 6, 4, 0, 3, 33, 5, 0, 0, 103, 0, 0, 0, 0, 0, 2, 3, 1, 0, 3},
}

// FuzzComputeStrip holds ComputeStrip to its rounds — every clock to the bit
// and every Stats field — on up to 16 processors from clocks at and around
// powers of two, costs that are ties, flops, guards or neither, up to six
// computations, an optional send or multicast among them, and up to 300
// rounds. Clocks and ties are drawn near one scale a case, so that a tie
// often falls on the grid of a clock it is added to; a steady case's leap of a
// transfer is what stands between a wrong winner or binade and a wrong clock.
func FuzzComputeStrip(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { fuzzStrip(t, data) })
}

// fuzzStrip is one case of FuzzComputeStrip; it reports whether the strip has
// more than two rounds and a transfer that moves a clock, and whether it
// leapt. One case in four is steady: its clocks lie low in one binade, so that
// the rounds' values can stay there. Two in four have a machine on the grid of
// the case's scale: its latency and overhead are a few of the grid's ulps, so
// that a transfer's sums cross powers of two and fall on ties of the grid. In
// one of those two the transfer's sender sits under the power of two 2^-scale
// by what its rounds advance it and a few ulps more: what it sends crosses the
// power, onto a grid twice as coarse, while the sender stays below.
func fuzzStrip(t *testing.T, data []byte) (transfer, leapt bool) {
	b := fuzzBytes(data)
	P, scale, mode := 1+b.next()%16, b.next()%40-4, b.next()%4
	g, params := grid(P), SP2()
	pow := math.Ldexp(1, -scale)
	w := ulp(math.Nextafter(pow, 0))
	if mode%2 == 1 { // (a bandwidth this high adds nothing to the latency)
		params = Params{Latency: float64(1+b.bits(11)) * w, Overhead: float64(b.next()%16) * w,
			Bandwidth: 8e300, FlopTime: 1, ElemBytes: 8}
	}
	want, got := New(g, params), New(g, params)
	for p := range want.Clock {
		if mode == 0 { // low in one binade of [1/8, 2): room for the rounds
			want.Clock[p] = math.Ldexp(1+float64(b.bits(16))/(1<<20), -(scale & 3))
		} else {
			want.Clock[p] = b.clock(scale)
		}
	}
	var cs []listed
	for i := 1 + b.next()%6; i > 0; i-- {
		cs = append(cs, list(b.set(g), b.cost(scale)))
	}
	at, from := b.next()%(len(cs)+1), b.next()%P
	var dsts []int32 // the transfer's receivers
	switch b.next() % 3 {
	case 1:
		to := b.next() % P
		if to != from {
			dsts = []int32{int32(to)}
		}
		cs = append(cs[:at], append([]listed{send(g, from, to)}, cs[at:]...)...)
	case 2:
		c := multicast(b.set(g), from)
		dsts = c.procs
		cs = append(cs[:at], append([]listed{c}, cs[at:]...)...)
	}
	n := int64(b.bits(16)) % 301
	if mode == 3 && len(dsts) > 0 {
		underPower(want, cs, from, dsts, n, pow, 1+b.next()%16)
	}
	copy(got.Clock, want.Clock)
	rounds(want, cs, n)
	ok, leapt := leaps(got, cs, n)
	if !ok {
		t.Fatal("no recorder, no faults, and still not one operation")
	}
	if !sameClocks(got.Clock, want.Clock) || got.Stats != want.Stats {
		t.Errorf("P=%d n=%d: clocks %v, stats %+v; the rounds leave %v, %+v",
			P, n, got.Clock, got.Stats, want.Clock, want.Stats)
	}
	moves := func(c listed) bool { return c.to >= 0 && c.from != c.to || c.to < 0 && c.from >= 0 && len(c.procs) > 0 }
	return n > 2 && slices.ContainsFunc(cs, moves), leapt
}

// underPower places a strip's sender under pow, a power of two, by n of its
// advances (one round from inside the binade below measures one) and off ulps
// of that binade more, so that what it sends crosses onto the grid twice as
// coarse while it stays below; and each of its receivers one advance under
// what the second round delivers to it, so that it first takes a delivery
// there. Of the offsets off to off+3 it takes the first at which the coarse
// grid's ties round up and down by turns: the second delivery lands further
// above the first than the sender advances, and the third does not repeat
// the second's step.
func underPower(m *Machine, cs []listed, from int, dsts []int32, n int64, pow float64, off int) {
	w := ulp(math.Nextafter(pow, 0))
	probe := New(m.Grid, m.Params)
	m.Clock[from] = 0.75 * pow
	copy(probe.Clock, m.Clock)
	rounds(probe, cs, 1)
	adv := probe.Clock[from] - m.Clock[from]
	second := make([]float64, len(dsts))
	for j := 0; j < 4; j++ {
		m.Clock[from] = pow - float64(n)*adv - float64(off+j)*w
		copy(probe.Clock, m.Clock)
		for _, p := range dsts {
			probe.Clock[p] = 0
		}
		rounds(probe, cs, 1)
		first := probe.Clock[dsts[0]]
		rounds(probe, cs, 1)
		for i, p := range dsts {
			second[i] = probe.Clock[p]
		}
		rounds(probe, cs, 1)
		if second[0]-first > adv && probe.Clock[dsts[0]]-second[0] != adv {
			break
		}
	}
	for i, p := range dsts {
		m.Clock[p] = second[i] - adv
	}
}

// TestFuzzSeedsLeap runs FuzzComputeStrip's seeds and requires the steady
// transfer strips among them to leap, so that the fuzz target holds the leap
// of a transfer to its rounds, not only the rounds to themselves.
func TestFuzzSeedsLeap(t *testing.T) {
	leapt := 0
	for _, seed := range fuzzSeeds {
		if transfer, l := fuzzStrip(t, seed); transfer && l {
			leapt++
		}
	}
	if leapt < 3 {
		t.Errorf("%d seeds leap a transfer strip, the three steady ones should", leapt)
	}
}
