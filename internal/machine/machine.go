// Package machine simulates a distributed-memory message-passing machine in
// the style of the IBM SP2 the paper measured on: per-processor clocks, a
// LogGP-like point-to-point cost (latency α, sender overhead o, inverse
// bandwidth 1/β), and log-tree collectives. Statement execution and
// communication advance the clocks; the program's execution time is the
// maximum clock.
package machine

import (
	"fmt"
	"math"
	"math/bits"

	"phpf/internal/dist"
	"phpf/internal/fault"
	"phpf/internal/trace"
)

// Params are the machine cost parameters, in seconds and bytes/second.
type Params struct {
	Latency   float64 // α: end-to-end message latency
	Overhead  float64 // o: sender CPU occupancy per message
	Bandwidth float64 // β⁻¹: bytes per second on a link
	FlopTime  float64 // time per floating-point operation
	ElemBytes int64   // bytes per array element / scalar message
	// GuardTime is the per-iteration cost of communication left inside a
	// loop: the generated code must evaluate ownership guards and invoke
	// the runtime's send/receive checks every iteration, whether or not a
	// message actually flows. It is the model's counterpart of the paper's
	// "inner-loop communication" penalty that message vectorization
	// removes.
	GuardTime float64
}

// Validate rejects parameter sets that would poison the clocks with NaN or
// Inf times: non-positive latency, bandwidth, flop time, or element size
// (a zero bandwidth makes every transfer infinitely long; a negative latency
// lets time run backwards), and any non-finite value.
func (p Params) Validate() error {
	pos := []struct {
		name string
		v    float64
	}{
		{"Latency", p.Latency},
		{"Bandwidth", p.Bandwidth},
		{"FlopTime", p.FlopTime},
		{"ElemBytes", float64(p.ElemBytes)},
	}
	for _, f := range pos {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("machine: %s must be finite, got %v", f.name, f.v)
		}
		if f.v <= 0 {
			return fmt.Errorf("machine: %s must be positive, got %v", f.name, f.v)
		}
	}
	nonneg := []struct {
		name string
		v    float64
	}{
		{"Overhead", p.Overhead},
		{"GuardTime", p.GuardTime},
	}
	for _, f := range nonneg {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("machine: %s must be finite, got %v", f.name, f.v)
		}
		if f.v < 0 {
			return fmt.Errorf("machine: %s must be >= 0, got %v", f.name, f.v)
		}
	}
	return nil
}

// SP2 returns parameters approximating a 1995-era IBM SP2 thin node with
// MPL user-space communication: ~40µs latency, ~35 MB/s bandwidth,
// ~66 MFLOPS sustained per node, ~0.5µs per inner-loop communication guard.
func SP2() Params {
	return Params{
		Latency:   40e-6,
		Overhead:  10e-6,
		Bandwidth: 35e6,
		FlopTime:  15e-9,
		ElemBytes: 8,
		GuardTime: 0.5e-6,
	}
}

// Stats aggregates communication activity.
type Stats struct {
	Messages     int64 // point-to-point messages (incl. collective rounds)
	BytesMoved   int64
	Broadcasts   int64
	Shifts       int64
	Reductions   int64
	Merges       int64 // privatized-reduction tree merges (see TreeMerge)
	PointToPoint int64
	AllToAlls    int64

	// Fault and recovery activity (all zero on fault-free runs).
	Retransmits      int64 // lost transmissions repeated after a timeout
	Duplicates       int64 // spurious duplicate transmissions delivered
	Crashes          int64 // fail-stop failures recovered from
	Checkpoints      int64 // coordinated checkpoints taken
	CheckpointBytes  int64 // state written to stable store at checkpoints
	RecoveryBytes    int64 // bytes refetched to restore a crashed processor
	RecoveryMessages int64 // refetch messages during recovery
}

// Machine is a simulated machine instance.
type Machine struct {
	Params Params
	Grid   *dist.Grid
	Clock  []float64
	Stats  Stats
	// Fault, when non-nil, injects message loss/duplication and compute
	// slowdowns into every cost below. Nil keeps the exact fault-free
	// arithmetic (pay-for-what-you-use).
	Fault *fault.Injector
	// Rec, when non-nil, receives one trace event per modeled message,
	// computation charge, collective, checkpoint, and fault — stamped with
	// simulated time and the attribution set via SetAttr. Nil keeps the
	// cost paths allocation- and emission-free.
	Rec *trace.Recorder

	// dsts lists a Multicast's destinations (scratch).
	dsts []int32
	// tape records a leaped strip's round (scratch).
	tape tape

	// Attribution for subsequent charges (see SetAttr).
	attrStmt  int32
	attrReq   int32
	attrClass dist.CommClass
}

// New creates a machine over the given grid.
func New(grid *dist.Grid, p Params) *Machine {
	n := grid.Size()
	clocks := make([]float64, 3*n)
	return &Machine{Params: p, Grid: grid, Clock: clocks[:n:n],
		tape: tape{x: clocks[n : 2*n : 2*n], top: clocks[2*n:]}, attrStmt: -1, attrReq: -1}
}

// SetAttr stamps the statement, communication-plan requirement, and
// communication class that subsequent charges realize; emitted events carry
// them. Pass -1/-1/CommNone for unattributed charges.
func (m *Machine) SetAttr(stmt, req int, class dist.CommClass) {
	m.attrStmt, m.attrReq, m.attrClass = int32(stmt), int32(req), class
}

// ClearAttr resets the attribution to "none".
func (m *Machine) ClearAttr() { m.SetAttr(-1, -1, dist.CommNone) }

// emit records one event with the current attribution (callers guard on
// m.Rec != nil so the disabled path stays a single branch).
func (m *Machine) emit(k trace.Kind, proc, peer int, t, dur float64, bytes int64) {
	m.emitMerged(k, proc, peer, t, dur, bytes, 0)
}

// emitMerged is emit for the one event that carries a merged-row count (a
// tree merge's Reduce).
func (m *Machine) emitMerged(k trace.Kind, proc, peer int, t, dur float64, bytes int64, merged int) {
	m.Rec.Emit(0, trace.Event{
		Time: t, Dur: dur, Bytes: bytes, Kind: k, Class: m.attrClass,
		Proc: int32(proc), Peer: int32(peer), Stmt: m.attrStmt, Req: m.attrReq,
		Merged: int32(merged),
	})
}

// NProcs returns the processor count.
func (m *Machine) NProcs() int { return len(m.Clock) }

// Time returns the current execution time: the maximum clock.
func (m *Machine) Time() float64 {
	t := 0.0
	for _, c := range m.Clock {
		if c > t {
			t = c
		}
	}
	return t
}

// slowest returns the latest clock among procs: where an operation that
// synchronizes them starts, everyone waiting for the slowest.
func (m *Machine) slowest(procs []int) float64 {
	t := 0.0
	for _, p := range procs {
		if m.Clock[p] > t {
			t = m.Clock[p]
		}
	}
	return t
}

// Compute charges t seconds of computation to every processor in set.
func (m *Machine) Compute(set dist.ProcSet, t float64) {
	if t == 0 {
		return
	}
	if m.Fault != nil && m.Fault.HasSlowdowns() {
		if set.IsAll() {
			for i := range m.Clock {
				d := t * m.Fault.SlowFactor(i, m.Clock[i])
				m.Clock[i] += d
				if m.Rec != nil {
					m.emit(trace.Compute, i, -1, m.Clock[i], d, 0)
				}
			}
			return
		}
		set.Each(func(p int) {
			d := t * m.Fault.SlowFactor(p, m.Clock[p])
			m.Clock[p] += d
			if m.Rec != nil {
				m.emit(trace.Compute, p, -1, m.Clock[p], d, 0)
			}
		})
		return
	}
	if set.IsAll() {
		for i := range m.Clock {
			m.Clock[i] += t
			if m.Rec != nil {
				m.emit(trace.Compute, i, -1, m.Clock[i], t, 0)
			}
		}
		return
	}
	set.Each(func(p int) {
		m.Clock[p] += t
		if m.Rec != nil {
			m.emit(trace.Compute, p, -1, m.Clock[p], t, 0)
		}
	})
}

// Listed is one charge of a strip (ComputeStrip), its processors listed once
// for all its rounds, ascending as Each visits them, at procs[Lo:Lo+N] of the
// strip's list: T seconds of computation on each of them, or, where From ≥ 0,
// the transfer of one element (Params.ElemBytes) from processor From — a Send
// to processor To or, To < 0, a multicast to them, From not among them.
type Listed struct {
	T               float64
	From, To, Lo, N int32
}

// ComputeStrip is n rounds of the listed charges, round by round and charge by
// charge: a computation is Compute's own additions to the listed clocks in
// Compute's order, never one charge n times before the next and never n·t; a
// transfer is Send's or Multicast's own arithmetic. With a recorder, slowdowns
// or a fault injector attached it charges nothing and reports false: each
// charge must then be a Compute, Send or Multicast of its own, which the
// recorder sees, slowdowns scale and the injector draws for.
//
// A strip of more than two rounds is leaped: one round r is recorded (the
// second where a transfer's first round synchronizes clocks that start apart,
// else the first), and each clock it moved from x to c is set to c + (n−r)·D,
// D = c − x, Stats advanced by n−r times its counts: the n rounds, bit for
// bit. A value x of the binade [2^e, 2^(e+1)) lies on the grid u = 2^(e−52);
// while x + t stays below 2^(e+1), fl(x + t) = x + RN_u(t) whatever x is,
// unless t is a tie (t mod u = u/2). Each value of a round is a clock as the
// round found it, its source, plus such additions, carried between clocks by
// the maxes of Send and Multicast. While each value keeps its source's binade
// and each max its strict winner, round k is round r with each value raised
// by (k−r)·D of its source, and where each clock ends carrying a source of
// its own D, round k+1 starts raised by (k−r+1)·D. Projected to round n, the
// recorded values show both: values rise, so one below its binade's end at
// round n is below it in every round between, and a max's sides are affine in
// the round, so a strict winner at rounds r and n wins every round between.
// The projections, multiples of u below 2^(e+1), are exact. Where a check
// fails, a charged clock is 0, subnormal or below 2^-971 (1/u is then no
// normal float) or a cost negative or a tie on its operand's grid, the rest is
// made round by round. A strip of computations only has no max.
func (m *Machine) ComputeStrip(n int64, charges []Listed, procs []int32) bool {
	if m.Rec != nil || m.Fault != nil {
		return false
	}
	made := int64(0)
	if n > 2 {
		made = m.leap(n, charges, procs)
	}
	if stripped != nil {
		stripped(charges, n, made == n)
	}
	m.rounds(n-made, charges, procs)
	return true
}

// stripped, when set, is told of every strip ComputeStrip makes: its charges,
// its rounds, and whether it leapt (a test's census).
var stripped func(charges []Listed, n int64, leapt bool)

// rounds makes n rounds of a strip's charges (ComputeStrip), recording them
// while m.tape is on.
func (m *Machine) rounds(n int64, charges []Listed, procs []int32) {
	clock, tp, rec := m.Clock, &m.tape, m.tape.on
	for ; n > 0; n-- {
		for i := range charges {
			c := &charges[i]
			switch on := procs[c.Lo : c.Lo+c.N]; {
			case c.From >= 0 && c.To >= 0:
				m.Send(int(c.From), int(c.To), m.Params.ElemBytes)
			case c.From >= 0:
				m.multicast(int(c.From), on, m.Params.ElemBytes)
			case c.T != 0: // (Compute adds no zero)
				if rec {
					tp.adds(clock, on, c.T)
					continue
				}
				for _, p := range on {
					clock[p] += c.T
				}
			}
		}
	}
}

// tape records one round of a strip for its leap (ComputeStrip): the clocks
// as it found them (then at round n); on a strip with a transfer, the highest
// value each of them reached, the clock whose round-start value each clock
// carries, and the maxes between values of two sources.
type tape struct {
	on, same bool
	x, top   []float64
	src      []int32
	maxes    []contest
}

// contest is a max of v, carried from clock sv's round-start value, and w,
// carried from sw's.
type contest struct {
	v, w   float64
	sv, sw int32
}

func (tp *tape) add(x, t float64) { tp.same = tp.same && roundsAlike(x, t) }

// adds adds t to each listed clock and records it, testing the addition only
// where the clock's biased exponent, which decides it with t, differs from the
// last.
func (tp *tape) adds(clock []float64, on []int32, t float64) {
	last := uint64(1 << 12) // no exponent
	for _, p := range on {
		if be := math.Float64bits(clock[p]) >> 52; be != last {
			tp.same, last = tp.same && roundsAlike(clock[p], t), be
		}
		clock[p] += t
	}
}

// contest records the max of v, carried from where clock from's value is, and
// clock to, before clock to takes the winner.
func (tp *tape) contest(clock []float64, v float64, from, to int) {
	sv, w, sw := tp.src[from], clock[to], tp.src[to]
	tp.same = tp.same && v != w
	if sv != sw { // (two values of one source keep their order: they move alike)
		tp.maxes = append(tp.maxes, contest{v, w, sv, sw})
	}
	if v > w {
		tp.reach(sw, w)
		tp.src[to] = sv
	}
	tp.reach(sv, v)
}

// reach records that a value carried from clock s's round-start value is v.
func (tp *tape) reach(s int32, v float64) {
	if v > tp.top[s] {
		tp.top[s] = v
	}
}

// leap makes the n rounds of a strip (ComputeStrip) up to the one it records,
// and the rest at once where they provably repeat it; it returns the rounds it
// made: n, or those up to the recorded one where it declined.
func (m *Machine) leap(n int64, charges []Listed, procs []int32) int64 {
	tp, made, carried := &m.tape, int64(1), false
	lo, hi := len(m.Clock), 0 // the range of clocks the lists (each ascending) name
	for i := range charges {
		c := &charges[i]
		if carried = carried || c.From >= 0; c.N > 0 {
			lo, hi = min(lo, int(procs[c.Lo])), max(hi, int(procs[c.Lo+c.N-1])+1)
		}
	}
	tp.src = tp.src[:0]
	if carried { // every clock may move
		lo, hi = 0, len(m.Clock)
		if tp.src == nil { // (a machine that leaps no transfer allocates nothing)
			tp.src, tp.maxes = make([]int32, 0, hi), make([]contest, 0, 4*hi)
		}
		for p := range m.Clock {
			tp.src = append(tp.src, int32(p))
		}
		m.rounds(1, charges, procs) // round 1 synchronizes clocks that start apart
		made++
		copy(tp.top, m.Clock)
	}
	lo = min(lo, hi)
	clock, x, st := m.Clock[lo:hi], tp.x[lo:hi], &m.Stats
	copy(x, clock)
	msgs, p2p, bytes, bcasts := st.Messages, st.PointToPoint, st.BytesMoved, st.Broadcasts
	tp.on, tp.same, tp.maxes = true, true, tp.maxes[:0]
	m.rounds(1, charges, procs)
	tp.on = false
	if !tp.same {
		return made
	}
	k := float64(n - made)
	for p, s := range tp.src {
		tp.reach(s, clock[p])
	}
	for p, c := range clock { // x becomes the clocks at round n
		most := c
		if carried && tp.top[p] > most {
			most = tp.top[p]
		}
		if xp := x[p]; most != xp { // (else c is xp: D is 0)
			d := c - xp // D, exact while c stays in x's binade
			if most+k*d >= binadeEnd(xp) {
				return made
			}
			x[p] = c + k*d
		}
	}
	// Each clock's x − c is now (n−r)·D, exactly.
	for p, s := range tp.src {
		if x[s]-clock[s] != x[p]-clock[p] {
			return made
		}
	}
	for _, c := range tp.maxes {
		if lv, lw := x[c.sv]-clock[c.sv], x[c.sw]-clock[c.sw]; lv != lw {
			vn, wn := c.v+lv, c.w+lw
			if vn == wn || vn > wn != (c.v > c.w) {
				return made
			}
		}
	}
	copy(clock, x)
	r := n - made
	st.Messages += r * (st.Messages - msgs)
	st.PointToPoint += r * (st.PointToPoint - p2p)
	st.BytesMoved += r * (st.BytesMoved - bytes)
	st.Broadcasts += r * (st.Broadcasts - bcasts)
	return n
}

// roundsAlike reports whether adding t to the clock x adds the same amount to
// every clock of x's binade that the sum leaves in it: x is positive, normal
// and at least 2^-971, t is not negative and not a tie on x's grid u.
func roundsAlike(x, t float64) bool {
	be := math.Float64bits(x) >> 52 // x's biased exponent; 2048 and up: x < 0
	if be < 52 || be > 2046 || t < 0 {
		return false
	}
	s := t * math.Float64frombits((2098-be)<<52)    // t/u, exactly: 1/u = 2^(1075-be)
	return s >= 1<<52 || s-float64(int64(s)) != 0.5 // (from 2^52 on s is whole)
}

// binadeEnd is 2^(e+1) for x in [2^e, 2^(e+1)).
func binadeEnd(x float64) float64 {
	return math.Float64frombits((math.Float64bits(x)>>52 + 1) << 52)
}

// resend accounts for one transmission beyond the planned one — a
// retransmission or a spurious duplicate, which the caller counts: the
// message and its bytes again, overhead seconds of the sender's processor,
// one Fault event.
func (m *Machine) resend(from int, bytes int64, overhead float64) {
	m.Stats.Messages++
	m.Stats.BytesMoved += bytes
	m.Clock[from] += overhead
	if m.Rec != nil {
		m.emit(trace.Fault, from, -1, m.Clock[from], 0, bytes)
	}
}

// retransmits draws the loss decisions for one message of processor from and
// returns the wait before the transmission that gets through: each lost
// transmission costs one timeout, doubling per attempt (exponential backoff),
// and is resent at the given sender overhead (Send's o; a shift's
// retransmission pays none). Call with m.Fault set.
func (m *Machine) retransmits(from int, bytes int64, overhead float64) float64 {
	delay := 0.0
	rto := m.Fault.BaseRTO(m.Params.Latency)
	const maxRetries = 16
	for try := 0; try < maxRetries && m.Fault.DropMessage(); try++ {
		m.Stats.Retransmits++
		m.resend(from, bytes, overhead)
		delay += rto
		rto *= 2
	}
	return delay
}

// collectiveFaultDelay draws loss decisions for the k constituent messages
// of a collective and returns the added completion delay: the collective
// finishes one base timeout later per lost constituent (the retransmissions
// pipeline, so backoff does not compound across distinct messages).
func (m *Machine) collectiveFaultDelay(k int, bytes int64) float64 {
	if m.Fault == nil || k <= 0 {
		return 0
	}
	drops := m.Fault.DropsAmong(k)
	if drops == 0 {
		return 0
	}
	m.Stats.Retransmits += int64(drops)
	m.Stats.Messages += int64(drops)
	m.Stats.BytesMoved += bytes * int64(drops)
	if m.Rec != nil {
		for i := 0; i < drops; i++ {
			m.emit(trace.Fault, -1, -1, m.Time(), 0, bytes)
		}
	}
	return float64(drops) * m.Fault.BaseRTO(m.Params.Latency)
}

// ceilLog2 is ⌈log2 k⌉ for k ≥ 1, the round count of a k-leaf tree, in
// integer arithmetic: the value int(math.Ceil(math.Log2(float64(k)))) takes
// for every processor count a grid can have (TestCeilLog2MatchesFloat).
func ceilLog2(k int) int { return bits.Len(uint(k - 1)) }

// xferTime is the wire time of one message.
func (m *Machine) xferTime(bytes int64) float64 {
	return m.Params.Latency + float64(bytes)/m.Params.Bandwidth
}

// Send models one point-to-point message.
func (m *Machine) Send(from, to int, bytes int64) {
	m.Stats.Messages++
	m.Stats.PointToPoint++
	m.Stats.BytesMoved += bytes
	if from == to {
		// A local (owner = executor) delivery still traces as a send/recv
		// pair so both backends' event counts agree (the concurrent backend
		// really transfers it over the self edge).
		if m.Rec != nil {
			m.emit(trace.Send, from, to, m.Clock[from], 0, bytes)
			m.emit(trace.Recv, to, from, m.Clock[to], 0, bytes)
		}
		return
	}
	depart := m.Clock[from]
	m.Clock[from] += m.Params.Overhead
	if m.Fault != nil {
		depart += m.retransmits(from, bytes, m.Params.Overhead)
		// A point-to-point message is the one kind that can also arrive
		// twice: the sender pays for the spurious copy.
		if m.Fault.DuplicateMessage() {
			m.Stats.Duplicates++
			m.resend(from, bytes, m.Params.Overhead)
		}
	}
	arrive := depart + m.xferTime(bytes)
	if m.tape.on {
		m.tape.add(depart, m.Params.Overhead)
		m.tape.add(depart, m.xferTime(bytes))
		m.tape.contest(m.Clock, arrive, from, to)
	}
	if arrive > m.Clock[to] {
		m.Clock[to] = arrive
	}
	if m.Rec != nil {
		m.emit(trace.Send, from, to, depart, 0, bytes)
		m.emit(trace.Recv, to, from, arrive, 0, bytes)
	}
}

// Multicast models a tree multicast of bytes from one processor to a set of
// destinations: ceil(log2(k+1)) rounds of α+bytes/β, synchronizing the
// destinations behind the source.
func (m *Machine) Multicast(from int, dst dist.ProcSet, bytes int64) {
	if m.dsts == nil {
		m.dsts = make([]int32, 0, len(m.Clock))
	}
	m.dsts = dst.Append(m.dsts[:0], from)
	m.multicast(from, m.dsts, bytes)
}

// multicast is Multicast to the k destinations procs lists, ascending, from
// not among them: the one arithmetic of a multicast, a strip's included.
func (m *Machine) multicast(from int, procs []int32, bytes int64) {
	k := len(procs)
	if k == 0 {
		return
	}
	rounds := ceilLog2(k + 1)
	m.Stats.Broadcasts++
	m.Stats.Messages += int64(k)
	m.Stats.BytesMoved += bytes * int64(k)
	start := m.Clock[from]
	cost := float64(rounds) * (m.xferTime(bytes) + m.Params.Overhead)
	cost += m.collectiveFaultDelay(k, bytes)
	done := m.Clock[from] + cost
	m.Clock[from] += float64(rounds) * m.Params.Overhead
	tp, taped := &m.tape, m.tape.on
	if taped {
		tp.add(start, cost)
		tp.add(start, float64(rounds)*m.Params.Overhead)
	}
	for _, p := range procs {
		if taped {
			tp.contest(m.Clock, done, from, int(p))
		}
		if done > m.Clock[p] {
			m.Clock[p] = done
		}
		if m.Rec != nil {
			// The tree multicast delivers one logical message per destination
			// — the same k send/recv pairs the concurrent backend's root
			// really transmits.
			m.emit(trace.Send, from, int(p), start, 0, bytes)
			m.emit(trace.Recv, int(p), from, done, 0, bytes)
		}
	}
}

// Shift models a collective nearest-neighbor shift among the processors of
// set: every participant sends bytesPerProc to a neighbor. Participants
// advance independently (no global barrier), which matches the pipelined
// behavior of compiled shift communication.
func (m *Machine) Shift(set dist.ProcSet, bytesPerProc int64) {
	k := set.Count()
	if k < 2 {
		return
	}
	m.Stats.Shifts++
	m.Stats.Messages += int64(k)
	m.Stats.BytesMoved += bytesPerProc * int64(k)
	cost := m.Params.Overhead + m.xferTime(bytesPerProc)
	// Only the trace needs the participants as a list: participant i's ring
	// transfer is a send to the next participant and a receive from the
	// previous one — the same (p±1) ring the concurrent backend's workers
	// actually exchange on.
	var ring []int
	if m.Rec != nil {
		ring = set.Procs()
	}
	i := 0
	set.Each(func(p int) {
		extra := 0.0
		if m.Fault != nil {
			// Each participant's message is lost independently; a lost
			// shift stalls only its own receiver-sender pair.
			extra = m.retransmits(p, bytesPerProc, 0)
		}
		depart := m.Clock[p]
		m.Clock[p] += cost + extra
		if ring != nil {
			m.emit(trace.Send, p, ring[(i+1)%k], depart, 0, bytesPerProc)
			m.emit(trace.Recv, p, ring[(i-1+k)%k], m.Clock[p], 0, bytesPerProc)
		}
		i++
	})
}

// Reduce models a combining tree over set (result available on the whole
// set, i.e. reduce + broadcast of the 8-byte result folded into
// ceil(log2 k) + ceil(log2 k) rounds); all participants synchronize.
func (m *Machine) Reduce(set dist.ProcSet, bytes int64) {
	procs := set.Procs()
	if len(procs) < 2 {
		return
	}
	rounds := 2 * ceilLog2(len(procs))
	m.Stats.Reductions++
	m.Stats.Messages += int64(rounds)
	m.Stats.BytesMoved += bytes * int64(len(procs))
	// Synchronize: everyone waits for the slowest, then pays the rounds.
	t := m.slowest(procs)
	start := t
	t += float64(rounds) * (m.xferTime(bytes) + m.Params.Overhead)
	t += m.collectiveFaultDelay(rounds, bytes)
	for _, p := range procs {
		m.Clock[p] = t
	}
	if m.Rec != nil {
		// One Reduce event per collective, attributed to the root the
		// concurrent backend gathers on (procs[0]); Bytes is the combined
		// contribution of all participants.
		m.emit(trace.Reduce, procs[0], -1, t, t-start, bytes*int64(len(procs)))
	}
}

// TreeMerge models the deterministic combining tree that merges privatized
// reduction partials at loop exit: ceil(log2 k) rounds in which the loser of
// each pair ships its partial row (bytes) to the winner. Unlike Reduce, no
// result broadcast is charged: the model folds the merged row into the
// accumulator where its elements live (the concurrent executor's delivery of
// that row is uncharged protocol traffic). All participants synchronize. merged is the number of partial rows combined,
// carried on the emitted Reduce event's Merged field.
func (m *Machine) TreeMerge(set dist.ProcSet, bytes int64, merged int) {
	procs := set.Procs()
	k := len(procs)
	if k < 2 {
		return
	}
	rounds := ceilLog2(k)
	m.Stats.Merges++
	m.Stats.Messages += int64(k - 1)
	m.Stats.BytesMoved += bytes * int64(k-1)
	t := m.slowest(procs)
	start := t
	t += float64(rounds) * (m.xferTime(bytes) + m.Params.Overhead)
	t += m.collectiveFaultDelay(k-1, bytes)
	for _, p := range procs {
		m.Clock[p] = t
	}
	if m.Rec != nil {
		// One Reduce event per merge, at the tree root, stamped with the
		// merged-row count so the trace distinguishes privatized merges from
		// collective reductions.
		m.emitMerged(trace.Reduce, procs[0], -1, t, t-start, bytes*int64(k-1), merged)
	}
}

// AllToAll models a full exchange among set with bytesPerProc leaving each
// participant (e.g. a transpose/redistribution); acts as a barrier.
func (m *Machine) AllToAll(set dist.ProcSet, bytesPerProc int64) {
	procs := set.Procs()
	k := len(procs)
	if k < 2 {
		return
	}
	m.Stats.AllToAlls++
	m.Stats.Messages += int64(k * (k - 1))
	m.Stats.BytesMoved += bytesPerProc * int64(k)
	t := m.slowest(procs)
	per := float64(k-1)*(m.Params.Latency+m.Params.Overhead) +
		float64(bytesPerProc)/m.Params.Bandwidth
	t += per
	t += m.collectiveFaultDelay(k*(k-1), bytesPerProc)
	for _, p := range procs {
		m.Clock[p] = t
		if m.Rec != nil {
			// One collective-participation event per processor (Peer = -1, no
			// requirement attribution: the concurrent backend realizes a
			// redistribution with its own barrier protocol, so these events
			// are outside the cross-backend parity set).
			m.emit(trace.Send, p, -1, t, 0, bytesPerProc)
		}
	}
}

// Exchange models moving totalBytes from the owners in src to the
// processors in dst (vectorized general communication): each destination
// receives one aggregated message.
func (m *Machine) Exchange(src, dst dist.ProcSet, totalBytes int64) {
	srcProcs := src.Procs()
	if len(srcProcs) == 0 {
		return
	}
	dstProcs := dst.Procs()
	recv := 0
	for _, p := range dstProcs {
		if !src.Contains(p) {
			recv++
		}
	}
	if recv == 0 {
		return
	}
	per := totalBytes / int64(len(srcProcs))
	if per == 0 {
		per = totalBytes
	}
	m.Stats.Messages += int64(recv)
	m.Stats.BytesMoved += totalBytes
	// Senders pay overhead; receivers synchronize behind the slowest
	// sender plus the wire time.
	depart := 0.0
	for _, p := range srcProcs {
		if m.Clock[p] > depart {
			depart = m.Clock[p]
		}
		m.Clock[p] += m.Params.Overhead
	}
	arrive := depart + m.xferTime(per) + m.collectiveFaultDelay(recv, per)
	i := 0
	for _, p := range dstProcs {
		if src.Contains(p) {
			continue
		}
		if arrive > m.Clock[p] {
			m.Clock[p] = arrive
		}
		if m.Rec != nil {
			// Receiver i is fed by source i%len(srcProcs) — the same
			// round-robin pairing the concurrent backend uses to realize a
			// vectorized general exchange with one message per destination.
			s := srcProcs[i%len(srcProcs)]
			m.emit(trace.Send, s, p, depart, 0, per)
			m.emit(trace.Recv, p, s, arrive, 0, per)
		}
		i++
	}
}

// Checkpoint charges a coordinated checkpoint: every processor synchronizes
// and writes bytesPerProc of local state to stable storage at link speed.
// bytesPerProc[p] is processor p's live state.
func (m *Machine) Checkpoint(bytesPerProc []int64) {
	t := m.Time()
	m.Stats.Checkpoints++
	for p := range m.Clock {
		var b int64
		if p < len(bytesPerProc) {
			b = bytesPerProc[p]
		}
		m.Stats.CheckpointBytes += b
		m.Clock[p] = t + m.Params.Latency + float64(b)/m.Params.Bandwidth
		if m.Rec != nil {
			m.emit(trace.Checkpoint, p, -1, m.Clock[p], m.Clock[p]-t, b)
		}
	}
}

// Recover charges the restoration of processor p after a fail-stop failure:
// all processors synchronize (coordinated rollback), everyone re-executes
// the work lost since the last checkpoint (lost seconds), and the restarted
// processor refetches refetchBytes of non-locally-recoverable state in msgs
// messages. Replicated private state costs nothing here — that is the
// mapping-dependent term the recovery experiments measure.
func (m *Machine) Recover(p int, lost float64, refetchBytes, msgs int64) {
	t := m.Time()
	m.Stats.Crashes++
	m.Stats.RecoveryBytes += refetchBytes
	m.Stats.RecoveryMessages += msgs
	if m.Rec != nil {
		m.emit(trace.Fault, p, -1, t, 0, 0)
	}
	t += lost // coordinated re-execution of the lost interval
	for i := range m.Clock {
		m.Clock[i] = t
	}
	if msgs > 0 {
		m.Clock[p] = t + float64(msgs)*(m.Params.Latency+m.Params.Overhead) +
			float64(refetchBytes)/m.Params.Bandwidth
	}
	if m.Rec != nil {
		m.emit(trace.Restart, p, -1, m.Clock[p], lost, refetchBytes)
	}
}

func (s Stats) String() string {
	out := fmt.Sprintf("msgs=%d bytes=%d bcast=%d shift=%d reduce=%d p2p=%d a2a=%d",
		s.Messages, s.BytesMoved, s.Broadcasts, s.Shifts, s.Reductions,
		s.PointToPoint, s.AllToAlls)
	if s.Merges > 0 {
		out += fmt.Sprintf(" merge=%d", s.Merges)
	}
	return out
}

// FaultString renders the fault/recovery counters (empty when no fault
// activity occurred).
func (s Stats) FaultString() string {
	if s.Retransmits == 0 && s.Duplicates == 0 && s.Crashes == 0 &&
		s.Checkpoints == 0 && s.RecoveryBytes == 0 {
		return ""
	}
	return fmt.Sprintf("retrans=%d dup=%d crashes=%d ckpts=%d ckpt_bytes=%d recovery_msgs=%d recovery_bytes=%d",
		s.Retransmits, s.Duplicates, s.Crashes, s.Checkpoints, s.CheckpointBytes,
		s.RecoveryMessages, s.RecoveryBytes)
}
