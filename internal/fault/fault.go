// Package fault provides a deterministic, seed-driven fault model for the
// simulated machine: per-message loss and duplication, transient
// per-processor slowdowns, and fail-stop processor crashes at chosen
// simulated times. Every random decision is a pure function of (seed,
// sequence number), so a run with a fixed seed is bit-identical across
// invocations regardless of Go's rand state — a property the recovery
// experiments in EXPERIMENTS.md rely on.
package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Slowdown is a transient per-processor compute slowdown: between Start and
// Start+Duration (simulated seconds) processor Proc runs Factor times slower.
// A zero Duration means the slowdown never ends.
type Slowdown struct {
	Proc     int
	Factor   float64
	Start    float64
	Duration float64
}

// Crash is a fail-stop failure of processor Proc at simulated time At. The
// simulator recovers it from the last coordinated checkpoint.
type Crash struct {
	Proc int
	At   float64
}

// Plan is a complete fault schedule for one run. The zero Plan injects
// nothing (a perfectly reliable machine).
type Plan struct {
	// Seed drives every probabilistic decision.
	Seed int64
	// LossRate is the probability that any one message transmission is
	// lost (and must be retransmitted after a timeout).
	LossRate float64
	// DupRate is the probability that a message is duplicated (the sender
	// pays overhead and wire bytes twice).
	DupRate float64
	// RTO is the base retransmission timeout in seconds; 0 selects the
	// machine's default (10x its latency). Each successive retransmission
	// of one message doubles the timeout (exponential backoff).
	RTO float64

	Slowdowns []Slowdown
	Crashes   []Crash
}

// Active reports whether the plan injects anything at all. Inactive plans
// cost nothing: the simulator skips the fault layer entirely
// (pay-for-what-you-use).
func (p *Plan) Active() bool {
	if p == nil {
		return false
	}
	return p.LossRate > 0 || p.DupRate > 0 || len(p.Slowdowns) > 0 || len(p.Crashes) > 0
}

// Validate rejects rates outside [0,1), non-positive crash/slowdown
// parameters, and NaN/Inf values.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	if !(p.LossRate >= 0 && p.LossRate < 1) || math.IsNaN(p.LossRate) {
		return fmt.Errorf("fault: loss rate must be in [0,1), got %v", p.LossRate)
	}
	if !(p.DupRate >= 0 && p.DupRate < 1) || math.IsNaN(p.DupRate) {
		return fmt.Errorf("fault: duplication rate must be in [0,1), got %v", p.DupRate)
	}
	if p.RTO < 0 || math.IsNaN(p.RTO) || math.IsInf(p.RTO, 0) {
		return fmt.Errorf("fault: retransmission timeout must be finite and >= 0, got %v", p.RTO)
	}
	for _, s := range p.Slowdowns {
		if s.Proc < 0 {
			return fmt.Errorf("fault: slowdown processor must be >= 0, got %d", s.Proc)
		}
		if !(s.Factor >= 1) || math.IsInf(s.Factor, 0) {
			return fmt.Errorf("fault: slowdown factor must be >= 1 and finite, got %v", s.Factor)
		}
		if s.Start < 0 || s.Duration < 0 || math.IsNaN(s.Start) || math.IsNaN(s.Duration) {
			return fmt.Errorf("fault: slowdown start/duration must be >= 0")
		}
	}
	for _, c := range p.Crashes {
		if c.Proc < 0 {
			return fmt.Errorf("fault: crash processor must be >= 0, got %d", c.Proc)
		}
		if !(c.At >= 0) || math.IsInf(c.At, 0) {
			return fmt.Errorf("fault: crash time must be finite and >= 0, got %v", c.At)
		}
	}
	return nil
}

// ParseCrashes parses a crash schedule of the form "proc@time[,proc@time...]"
// (e.g. "3@0.5,7@1.2"). The empty string is an empty schedule.
func ParseCrashes(spec string) ([]Crash, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []Crash
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), "@")
		if len(fields) != 2 {
			return nil, fmt.Errorf("fault: crash %q: want proc@time", part)
		}
		proc, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("fault: crash %q: bad processor: %v", part, err)
		}
		at, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("fault: crash %q: bad time: %v", part, err)
		}
		out = append(out, Crash{Proc: proc, At: at})
	}
	return out, nil
}

// ParseSlowdowns parses a slowdown schedule of the form
// "proc:factor[:start[:duration]]" entries separated by commas
// (e.g. "2:1.5:0.1:0.4,5:2"). The empty string is an empty schedule.
func ParseSlowdowns(spec string) ([]Slowdown, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []Slowdown
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 2 || len(fields) > 4 {
			return nil, fmt.Errorf("fault: slowdown %q: want proc:factor[:start[:duration]]", part)
		}
		proc, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("fault: slowdown %q: bad processor: %v", part, err)
		}
		s := Slowdown{Proc: proc}
		if s.Factor, err = strconv.ParseFloat(fields[1], 64); err != nil {
			return nil, fmt.Errorf("fault: slowdown %q: bad factor: %v", part, err)
		}
		if len(fields) > 2 {
			if s.Start, err = strconv.ParseFloat(fields[2], 64); err != nil {
				return nil, fmt.Errorf("fault: slowdown %q: bad start: %v", part, err)
			}
		}
		if len(fields) > 3 {
			if s.Duration, err = strconv.ParseFloat(fields[3], 64); err != nil {
				return nil, fmt.Errorf("fault: slowdown %q: bad duration: %v", part, err)
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// Injector draws fault decisions from a Plan. It is stateful only in the
// message sequence counter and consumed-crash marks; given the same plan and
// the same call sequence it makes the same decisions.
type Injector struct {
	plan     Plan
	seq      uint64
	consumed []bool
}

// NewInjector returns an injector for the plan, or nil when the plan is
// inactive (so callers can gate the whole fault layer on a nil check).
func NewInjector(p *Plan) *Injector {
	if !p.Active() {
		return nil
	}
	return &Injector{plan: *p, consumed: make([]bool, len(p.Crashes))}
}

// splitmix64 finalizer: a high-quality 64-bit mix of seed and counter.
func mix(seed int64, seq uint64) uint64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(seq+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// draw returns the next uniform value in [0,1).
func (in *Injector) draw() float64 {
	in.seq++
	return float64(mix(in.plan.Seed, in.seq)>>11) / (1 << 53)
}

// DropMessage decides whether the next message transmission is lost.
func (in *Injector) DropMessage() bool {
	if in.plan.LossRate <= 0 {
		return false
	}
	return in.draw() < in.plan.LossRate
}

// DuplicateMessage decides whether the next message is duplicated.
func (in *Injector) DuplicateMessage() bool {
	if in.plan.DupRate <= 0 {
		return false
	}
	return in.draw() < in.plan.DupRate
}

// DropsAmong draws k independent loss decisions (for the k constituent
// messages of a collective) and returns how many were lost.
func (in *Injector) DropsAmong(k int) int {
	if in.plan.LossRate <= 0 || k <= 0 {
		return 0
	}
	n := 0
	for i := 0; i < k; i++ {
		if in.draw() < in.plan.LossRate {
			n++
		}
	}
	return n
}

// BaseRTO returns the retransmission timeout: the plan's RTO if set, else
// 10x the machine latency (a classic conservative static RTO).
func (in *Injector) BaseRTO(latency float64) float64 {
	if in.plan.RTO > 0 {
		return in.plan.RTO
	}
	return 10 * latency
}

// SlowFactor returns the compute-slowdown multiplier for proc at simulated
// time now (>= 1; 1 means full speed). Overlapping slowdowns compound.
func (in *Injector) SlowFactor(proc int, now float64) float64 {
	f := 1.0
	for _, s := range in.plan.Slowdowns {
		if s.Proc != proc {
			continue
		}
		if now < s.Start {
			continue
		}
		if s.Duration > 0 && now >= s.Start+s.Duration {
			continue
		}
		f *= s.Factor
	}
	return f
}

// HasSlowdowns reports whether any slowdown is scheduled (lets the machine
// keep its uniform fast path when only message faults are active).
func (in *Injector) HasSlowdowns() bool { return len(in.plan.Slowdowns) > 0 }

// PendingCrash returns the earliest unconsumed crash whose time has been
// reached at simulated time now, marking it consumed; nil when none is due.
// Each crash fires exactly once.
func (in *Injector) PendingCrash(now float64) *Crash {
	best := -1
	for i, c := range in.plan.Crashes {
		if in.consumed[i] || c.At > now {
			continue
		}
		if best < 0 || c.At < in.plan.Crashes[best].At {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	in.consumed[best] = true
	c := in.plan.Crashes[best]
	return &c
}
