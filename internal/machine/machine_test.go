package machine

import (
	"math"
	"testing"
	"testing/quick"

	"phpf/internal/dist"
	"phpf/internal/fault"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// one is the set holding processor p of a one-dimensional grid.
func one(g *dist.Grid, p int) dist.ProcSet { return dist.AllProcs(g).WithDim(0, p) }

func TestComputeAll(t *testing.T) {
	g := dist.NewGrid(4)
	m := New(g, SP2())
	m.Compute(dist.AllProcs(g), 1.5)
	for p := 0; p < 4; p++ {
		if !approx(m.Clock[p], 1.5) {
			t.Errorf("clock[%d] = %v", p, m.Clock[p])
		}
	}
	if !approx(m.Time(), 1.5) {
		t.Errorf("time = %v", m.Time())
	}
}

func TestComputeSubset(t *testing.T) {
	g := dist.NewGrid(2, 2)
	m := New(g, SP2())
	row := dist.AllProcs(g).WithDim(0, 1)
	m.Compute(row, 2.0)
	if !approx(m.Time(), 2.0) {
		t.Errorf("time = %v", m.Time())
	}
	if m.Clock[0] != 0 {
		t.Errorf("proc 0 should be idle, clock=%v", m.Clock[0])
	}
}

func TestSendSynchronizesReceiver(t *testing.T) {
	g := dist.NewGrid(2)
	p := SP2()
	m := New(g, p)
	m.Compute(one(g, 0), 1.0)
	m.Send(0, 1, 800)
	wantArrive := 1.0 + p.Latency + 800/p.Bandwidth
	if !approx(m.Clock[1], wantArrive) {
		t.Errorf("clock[1] = %v, want %v", m.Clock[1], wantArrive)
	}
	if !approx(m.Clock[0], 1.0+p.Overhead) {
		t.Errorf("clock[0] = %v", m.Clock[0])
	}
	if m.Stats.Messages != 1 || m.Stats.BytesMoved != 800 {
		t.Errorf("stats = %+v", m.Stats)
	}
}

func TestSendToSelfFree(t *testing.T) {
	g := dist.NewGrid(2)
	m := New(g, SP2())
	m.Send(1, 1, 100)
	if m.Clock[1] != 0 {
		t.Errorf("self-send should not advance clock: %v", m.Clock[1])
	}
}

func TestSendNoBackwardsTime(t *testing.T) {
	g := dist.NewGrid(2)
	m := New(g, SP2())
	m.Compute(one(g, 1), 100.0) // receiver far ahead
	m.Send(0, 1, 8)
	if m.Clock[1] != 100.0 {
		t.Errorf("receiver clock moved backwards: %v", m.Clock[1])
	}
}

func TestMulticastRounds(t *testing.T) {
	g := dist.NewGrid(8)
	p := SP2()
	m := New(g, p)
	m.Multicast(0, dist.AllProcs(g), 8)
	// 7 destinations → ceil(log2 8) = 3 rounds.
	want := 3 * (p.Latency + 8/p.Bandwidth + p.Overhead)
	if !approx(m.Clock[7], want) {
		t.Errorf("clock[7] = %v, want %v", m.Clock[7], want)
	}
	if m.Stats.Broadcasts != 1 {
		t.Errorf("stats = %+v", m.Stats)
	}
}

// TestCeilLog2MatchesFloat pins the integer round count to the float formula
// it replaced, for every processor count along one grid dimension — the
// simulated clocks multiply by it, so it may not differ anywhere.
func TestCeilLog2MatchesFloat(t *testing.T) {
	for k := 1; k <= dist.MaxExtent+1; k++ { // Multicast asks for k+1
		if got, want := ceilLog2(k), int(math.Ceil(math.Log2(float64(k)))); got != want {
			t.Fatalf("ceilLog2(%d) = %d, float formula gives %d", k, got, want)
		}
	}
}

func TestReduceSynchronizesAll(t *testing.T) {
	g := dist.NewGrid(4)
	p := SP2()
	m := New(g, p)
	m.Compute(one(g, 2), 5.0)
	m.Reduce(dist.AllProcs(g), 8)
	want := 5.0 + 4*(p.Latency+8/p.Bandwidth+p.Overhead) // 2*log2(4) rounds
	for q := 0; q < 4; q++ {
		if !approx(m.Clock[q], want) {
			t.Errorf("clock[%d] = %v, want %v", q, m.Clock[q], want)
		}
	}
}

func TestShiftIndependentClocks(t *testing.T) {
	g := dist.NewGrid(4)
	p := SP2()
	m := New(g, p)
	m.Compute(one(g, 0), 3.0)
	m.Shift(dist.AllProcs(g), 80)
	cost := p.Overhead + p.Latency + 80/p.Bandwidth
	if !approx(m.Clock[0], 3.0+cost) || !approx(m.Clock[1], cost) {
		t.Errorf("clocks = %v", m.Clock)
	}
}

func TestShiftSingleProcFree(t *testing.T) {
	g := dist.NewGrid(1)
	m := New(g, SP2())
	m.Shift(dist.AllProcs(g), 80)
	if m.Clock[0] != 0 || m.Stats.Shifts != 0 {
		t.Error("single-processor shift should be free")
	}
}

func TestAllToAllBarrier(t *testing.T) {
	g := dist.NewGrid(4)
	m := New(g, SP2())
	m.Compute(one(g, 3), 2.0)
	m.AllToAll(dist.AllProcs(g), 1000)
	base := m.Clock[0]
	for q := 1; q < 4; q++ {
		if !approx(m.Clock[q], base) {
			t.Errorf("all-to-all should synchronize: %v", m.Clock)
		}
	}
	if base <= 2.0 {
		t.Errorf("all-to-all cost missing: %v", base)
	}
}

func TestExchange(t *testing.T) {
	g := dist.NewGrid(4)
	p := SP2()
	m := New(g, p)
	src := dist.AllProcs(g).WithDim(0, 0)
	m.Exchange(src, dist.AllProcs(g), 4000)
	// Destinations 1..3 synchronize behind src + wire time of 4000 bytes.
	want := p.Latency + 4000/p.Bandwidth
	for q := 1; q < 4; q++ {
		if !approx(m.Clock[q], want) {
			t.Errorf("clock[%d] = %v, want %v", q, m.Clock[q], want)
		}
	}
	// Receivers already holding the data are not charged.
	m2 := New(g, p)
	m2.Exchange(dist.AllProcs(g), dist.AllProcs(g), 4000)
	if m2.Time() != 0 {
		t.Error("exchange into owners should be free")
	}
}

// Property: time never decreases under any operation sequence.
func TestTimeMonotoneProperty(t *testing.T) {
	g := dist.NewGrid(4)
	check := func(ops []uint8) bool {
		m := New(g, SP2())
		prev := 0.0
		for _, op := range ops {
			switch op % 5 {
			case 0:
				m.Compute(dist.AllProcs(g), float64(op)*1e-6)
			case 1:
				m.Send(int(op)%4, int(op/4)%4, int64(op))
			case 2:
				m.Multicast(int(op)%4, dist.AllProcs(g), int64(op))
			case 3:
				m.Reduce(dist.AllProcs(g), 8)
			case 4:
				m.Shift(dist.AllProcs(g), int64(op))
			}
			now := m.Time()
			if now < prev {
				return false
			}
			prev = now
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: cost is monotone in message size.
func TestCostMonotoneInBytesProperty(t *testing.T) {
	g := dist.NewGrid(2)
	check := func(b1, b2 uint16) bool {
		if b1 > b2 {
			b1, b2 = b2, b1
		}
		m1 := New(g, SP2())
		m1.Send(0, 1, int64(b1))
		m2 := New(g, SP2())
		m2.Send(0, 1, int64(b2))
		return m1.Time() <= m2.Time()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// ---------------------------------------------------------------------------
// Params validation

// TestParamsValidate: the constructor-time validation rejects parameter sets
// whose costs would otherwise be NaN or Inf.
func TestParamsValidate(t *testing.T) {
	if err := SP2().Validate(); err != nil {
		t.Fatalf("SP2 params rejected: %v", err)
	}
	mk := func(f func(*Params)) Params {
		p := SP2()
		f(&p)
		return p
	}
	bad := map[string]Params{
		"zero latency":    mk(func(p *Params) { p.Latency = 0 }),
		"neg latency":     mk(func(p *Params) { p.Latency = -1e-6 }),
		"zero bandwidth":  mk(func(p *Params) { p.Bandwidth = 0 }),
		"neg bandwidth":   mk(func(p *Params) { p.Bandwidth = -1 }),
		"zero floptime":   mk(func(p *Params) { p.FlopTime = 0 }),
		"zero elem bytes": mk(func(p *Params) { p.ElemBytes = 0 }),
		"neg overhead":    mk(func(p *Params) { p.Overhead = -1e-9 }),
		"neg guard":       mk(func(p *Params) { p.GuardTime = -1e-9 }),
		"nan latency":     mk(func(p *Params) { p.Latency = math.NaN() }),
		"inf bandwidth":   mk(func(p *Params) { p.Bandwidth = math.Inf(1) }),
		"nan floptime":    mk(func(p *Params) { p.FlopTime = math.NaN() }),
	}
	for name, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted %+v", name, p)
		}
	}
	// Zero overhead and guard time are legitimate (idealized network).
	ok := mk(func(p *Params) { p.Overhead = 0; p.GuardTime = 0 })
	if err := ok.Validate(); err != nil {
		t.Errorf("zero overhead/guard rejected: %v", err)
	}
}

// TestValidatePreventsNaNPropagation: the exact failure mode validation
// guards against — a zero bandwidth or NaN latency turns a single Send into
// a NaN/Inf clock that silently poisons the whole run.
func TestValidatePreventsNaNPropagation(t *testing.T) {
	g := dist.NewGrid(2)

	p := SP2()
	p.Bandwidth = 0 // Validate rejects this...
	if err := p.Validate(); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	m := New(g, p) // ...because without validation the time becomes +Inf:
	m.Send(0, 1, 8)
	if !math.IsInf(m.Time(), 1) {
		t.Fatalf("expected Inf time under zero bandwidth, got %v", m.Time())
	}

	p = SP2()
	p.Latency = math.NaN()
	if err := p.Validate(); err == nil {
		t.Fatal("NaN latency accepted")
	}
	m = New(g, p)
	m.Send(0, 1, 8)
	// The NaN arrival time fails every comparison, so the receiver is
	// silently never synchronized — the message vanishes from the cost
	// model without any error surfacing.
	if m.Clock[1] != 0 {
		t.Fatalf("expected silently-lost arrival under NaN latency, clock[1]=%v", m.Clock[1])
	}
}

// ---------------------------------------------------------------------------
// Fault injection

func testInjector(t *testing.T, plan *fault.Plan) *fault.Injector {
	t.Helper()
	in := fault.NewInjector(plan)
	if in == nil {
		t.Fatal("plan should be active")
	}
	return in
}

// TestSendRetransmitCharged: a certain-loss-free send and a lossy send
// differ by the retransmission timeout, and the retry is counted.
func TestSendRetransmitCharged(t *testing.T) {
	g := dist.NewGrid(2)
	p := SP2()

	base := New(g, p)
	base.Send(0, 1, 800)

	// Find a seed whose first draw drops (rate 0.5 ⇒ a few tries suffice).
	for seed := int64(0); seed < 64; seed++ {
		m := New(g, p)
		m.Fault = testInjector(t, &fault.Plan{Seed: seed, LossRate: 0.5})
		m.Send(0, 1, 800)
		if m.Stats.Retransmits > 0 {
			if m.Clock[1] <= base.Clock[1] {
				t.Errorf("retransmitted send not slower: %v vs %v", m.Clock[1], base.Clock[1])
			}
			if m.Stats.BytesMoved <= base.Stats.BytesMoved {
				t.Errorf("retransmission bytes not counted: %+v", m.Stats)
			}
			return
		}
	}
	t.Fatal("no seed in [0,64) dropped the first message at rate 0.5")
}

// TestZeroFaultIdentical: an injector with rate 0 never perturbs costs, and
// a nil injector is the exact seed arithmetic.
func TestZeroFaultIdentical(t *testing.T) {
	g := dist.NewGrid(4)
	p := SP2()
	run := func(m *Machine) {
		m.Compute(dist.AllProcs(g), 1e-3)
		m.Send(0, 1, 800)
		m.Multicast(0, dist.AllProcs(g), 64)
		m.Shift(dist.AllProcs(g), 80)
		m.Reduce(dist.AllProcs(g), 8)
		m.AllToAll(dist.AllProcs(g), 1000)
	}
	a := New(g, p)
	run(a)
	b := New(g, p)
	b.Fault = fault.NewInjector(&fault.Plan{Seed: 9, LossRate: 0}) // nil: inactive
	if b.Fault != nil {
		t.Fatal("inactive plan must give nil injector")
	}
	run(b)
	for q := range a.Clock {
		if a.Clock[q] != b.Clock[q] {
			t.Fatalf("clock[%d]: %v vs %v", q, a.Clock[q], b.Clock[q])
		}
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats, b.Stats)
	}
}

// TestSlowdownFactor: a slowed processor accrues proportionally more time.
func TestSlowdownFactor(t *testing.T) {
	g := dist.NewGrid(2)
	m := New(g, SP2())
	m.Fault = testInjector(t, &fault.Plan{
		Slowdowns: []fault.Slowdown{{Proc: 1, Factor: 3}},
	})
	m.Compute(dist.AllProcs(g), 2.0)
	if !approx(m.Clock[0], 2.0) || !approx(m.Clock[1], 6.0) {
		t.Errorf("clocks = %v, want [2 6]", m.Clock)
	}
	m.Compute(one(g, 1), 1.0)
	if !approx(m.Clock[1], 9.0) {
		t.Errorf("one-processor Compute not slowed: %v", m.Clock[1])
	}
}

// TestCheckpointAndRecover: checkpoint synchronizes and charges the state
// write; recovery re-executes the lost interval everywhere and charges the
// refetch only to the restarted processor.
func TestCheckpointAndRecover(t *testing.T) {
	g := dist.NewGrid(2)
	p := SP2()
	m := New(g, p)
	m.Compute(one(g, 0), 1.0)
	m.Checkpoint([]int64{3500, 3500})
	want := 1.0 + p.Latency + 3500/p.Bandwidth
	if !approx(m.Clock[0], want) || !approx(m.Clock[1], want) {
		t.Fatalf("checkpoint clocks = %v, want %v", m.Clock, want)
	}
	if m.Stats.Checkpoints != 1 || m.Stats.CheckpointBytes != 7000 {
		t.Fatalf("checkpoint stats = %+v", m.Stats)
	}

	before := m.Time()
	m.Recover(1, 0.25, 8000, 2)
	if m.Stats.Crashes != 1 || m.Stats.RecoveryBytes != 8000 || m.Stats.RecoveryMessages != 2 {
		t.Fatalf("recovery stats = %+v", m.Stats)
	}
	if !approx(m.Clock[0], before+0.25) {
		t.Errorf("survivor clock = %v, want %v", m.Clock[0], before+0.25)
	}
	wantCrashed := before + 0.25 + 2*(p.Latency+p.Overhead) + 8000/p.Bandwidth
	if !approx(m.Clock[1], wantCrashed) {
		t.Errorf("crashed clock = %v, want %v", m.Clock[1], wantCrashed)
	}

	// Local-only recovery (replicated state): no refetch charge.
	m2 := New(g, p)
	m2.Compute(one(g, 0), 1.0)
	t0 := m2.Time()
	m2.Recover(1, 0.5, 0, 0)
	if !approx(m2.Clock[1], t0+0.5) {
		t.Errorf("local recovery should not charge refetch: %v", m2.Clock[1])
	}
}
