// Wall-clock fault injection for the concurrent backend. The sequential
// Injector draws from a seed-keyed stream indexed by a running counter,
// which requires a single deterministic call order; goroutine-per-processor
// execution has no such order, so the wall injector instead keys every draw
// off the identity of the transmission itself: (src, dst, seq, attempt).
// Two runs with the same plan make the same per-message decisions no matter
// how the goroutines interleave — the reproducibility property the chaos
// gate depends on.
package fault

import "time"

// DefaultWallRTO is the base retransmission timeout for real (wall-clock)
// transport when the plan does not set one. It only has to beat goroutine
// scheduling jitter, not a network.
const DefaultWallRTO = 2 * time.Millisecond

// DefaultDelayUnit converts a slowdown factor into wall time: a sender
// inside a slowdown window sleeps (factor-1) delay units per message.
const DefaultDelayUnit = time.Millisecond

// draw kinds keep the keyed streams for different decisions independent.
const (
	wallDrop uint64 = iota + 1
	wallDup
)

// WallInjector draws wall-clock fault decisions for the concurrent
// backend's wire layer. Unlike Injector it is stateless: every method is a
// pure function of the plan seed and the transmission's identity, so it may
// be shared by all worker goroutines without synchronization.
type WallInjector struct {
	plan Plan
	// DelayUnit is the wall time one unit of slowdown costs a sender
	// (tests shrink or grow it to steer the stall watchdog).
	DelayUnit time.Duration
}

// NewWallInjector returns a wall injector for the plan, or nil when the
// plan carries no wire-level faults (losses, duplicates, or slowdowns).
// Crashes and checkpoints are model-level and do not need one.
func NewWallInjector(p *Plan) *WallInjector {
	if p == nil || (p.LossRate <= 0 && p.DupRate <= 0 && len(p.Slowdowns) == 0) {
		return nil
	}
	return &WallInjector{plan: *p, DelayUnit: DefaultDelayUnit}
}

// keyed folds the transmission identity into one uniform draw in [0,1).
func (w *WallInjector) keyed(kind uint64, src, dst int, seq uint64, attempt int) float64 {
	h := mix(w.plan.Seed, kind)
	h = mix(int64(h), uint64(uint32(src))<<32|uint64(uint32(dst)))
	h = mix(int64(h), seq)
	h = mix(int64(h), uint64(attempt))
	return float64(h>>11) / (1 << 53)
}

// DropAttempt decides whether transmission attempt `attempt` of message
// (src, dst, seq) is lost on the wire. dup marks the duplicated copy of an
// attempt so it draws independently from the original.
func (w *WallInjector) DropAttempt(src, dst int, seq uint64, attempt int, dup bool) bool {
	if w == nil || w.plan.LossRate <= 0 {
		return false
	}
	if dup {
		attempt = -1 - attempt
	}
	return w.keyed(wallDrop, src, dst, seq, attempt) < w.plan.LossRate
}

// Duplicate decides whether message (src, dst, seq) is sent twice.
func (w *WallInjector) Duplicate(src, dst int, seq uint64) bool {
	if w == nil || w.plan.DupRate <= 0 {
		return false
	}
	return w.keyed(wallDup, src, dst, seq, 0) < w.plan.DupRate
}

// RTO returns the base wall-clock retransmission timeout: the plan's RTO
// (interpreted as seconds) when set, else DefaultWallRTO. Retransmissions
// double it (exponential backoff), mirroring the simulated protocol.
func (w *WallInjector) RTO() time.Duration {
	if w != nil && w.plan.RTO > 0 {
		return time.Duration(w.plan.RTO * float64(time.Second))
	}
	return DefaultWallRTO
}

// SendDelay returns the wall time a send by proc at wall-clock second `now`
// must stall for under the plan's slowdown windows: (factor-1) delay units,
// with overlapping windows compounding like the simulator's SlowFactor.
func (w *WallInjector) SendDelay(proc int, now float64) time.Duration {
	if w == nil || len(w.plan.Slowdowns) == 0 {
		return 0
	}
	f := 1.0
	for _, s := range w.plan.Slowdowns {
		if s.Proc != proc || now < s.Start {
			continue
		}
		if s.Duration > 0 && now >= s.Start+s.Duration {
			continue
		}
		f *= s.Factor
	}
	if f <= 1 {
		return 0
	}
	return time.Duration((f - 1) * float64(w.DelayUnit))
}

// Clone returns an independent copy of the injector's draw state, so a
// checkpoint can capture "where the fault stream was" and a restore can
// resume it bit-identically. Clone of nil is nil.
func (in *Injector) Clone() *Injector {
	if in == nil {
		return nil
	}
	c := &Injector{plan: in.plan, seq: in.seq}
	c.consumed = append([]bool(nil), in.consumed...)
	return c
}
