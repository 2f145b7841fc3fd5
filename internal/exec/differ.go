// The differential oracle: runs the same SPMD program through the
// sequential simulator and the concurrent executor and demands bit-for-bit
// agreement on every scalar, every array element, and the aggregate
// communication statistics. Because both backends share their entire
// interpretation core (internal/eval), any disagreement is a genuine bug in
// one backend's execution or accounting — the oracle is what makes the
// concurrent backend trustworthy and the simulator's cost model honest.
package exec

import (
	"context"
	"fmt"
	"math"
	"sort"

	"phpf/internal/dist"
	"phpf/internal/eval"
	"phpf/internal/sim"
	"phpf/internal/spmd"
	"phpf/internal/trace"
)

// DiffReport is the outcome of one differential run.
type DiffReport struct {
	Sim, Exec *Result
	// Mismatches lists every disagreement found (empty = backends agree).
	Mismatches []string
}

// Match reports whether the two backends agreed exactly.
func (r *DiffReport) Match() bool { return len(r.Mismatches) == 0 }

func (r *DiffReport) String() string {
	if r.Match() {
		return fmt.Sprintf("backends agree (time %.6gs, %s)", r.Sim.Time, r.Sim.Stats.String())
	}
	s := fmt.Sprintf("%d mismatches:", len(r.Mismatches))
	for _, m := range r.Mismatches {
		s += "\n  " + m
	}
	return s
}

// Diff executes the program on both backends under the one configuration —
// the same seeded fault plan, checkpoint interval, reduction strategy and
// trace options, which is the only setting under which their accounting is
// comparable — and compares. With Trace set the comparison extends to the
// event level: per-communication-class message and byte counts, and the
// counts of reduction, fault, checkpoint and restart events, must match
// exactly. An error means a backend failed to run (or the configuration is
// unusable for differential testing); a completed report with mismatches
// means the backends disagree.
func Diff(ctx context.Context, p *spmd.Program, cfg Config) (*DiffReport, error) {
	return diff(ctx, p, cfg, hooks{})
}

// diff is Diff with the executor's test seams.
func diff(ctx context.Context, p *spmd.Program, cfg Config, hk hooks) (*DiffReport, error) {
	if p == nil {
		return nil, eval.ConfigErrorf(eval.BackendDiff, "nil program")
	}
	if err := cfg.Validate(p.NProcs(), eval.BackendDiff); err != nil {
		return nil, err
	}
	// Each backend gets the configuration without the other's own knobs,
	// which its entry point would reject.
	simCfg, execCfg := cfg, cfg
	simCfg.StallTimeout = 0
	execCfg.MaxSeconds, execCfg.Profile = 0, false
	simRes, err := sim.RunContext(ctx, p, simCfg)
	if err != nil {
		return nil, fmt.Errorf("differ: %w", err)
	}
	if simRes.Aborted {
		return nil, eval.ConfigErrorf(eval.BackendDiff,
			"the differential oracle cannot compare an aborted simulator run (raise MaxSeconds)")
	}
	execRes, err := run(ctx, p, execCfg, hk)
	if err != nil {
		return nil, fmt.Errorf("differ: %w", err)
	}
	r := &DiffReport{Sim: simRes, Exec: execRes}
	r.compare()
	return r, nil
}

// compare fills Mismatches. Values are compared bitwise: the backends share
// the evaluation core, so even rounding must be identical.
func (r *DiffReport) compare() {
	miss := func(format string, args ...any) {
		r.Mismatches = append(r.Mismatches, fmt.Sprintf(format, args...))
	}

	var names []string
	for name := range r.Sim.Scalars {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := r.Sim.Scalars[name]
		got, ok := r.Exec.Scalars[name]
		if !ok {
			miss("scalar %s: missing from concurrent result", name)
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			miss("scalar %s: sim %v, exec %v", name, want, got)
		}
	}

	names = names[:0]
	for name := range r.Sim.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := r.Sim.Arrays[name]
		got, ok := r.Exec.Arrays[name]
		if !ok {
			miss("array %s: missing from concurrent result", name)
			continue
		}
		if len(got) != len(want) {
			miss("array %s: sim has %d elements, exec %d", name, len(want), len(got))
			continue
		}
		bad := 0
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				if bad == 0 {
					miss("array %s: first divergence at element %d: sim %v, exec %v",
						name, i, want[i], got[i])
				}
				bad++
			}
		}
		if bad > 1 {
			miss("array %s: %d diverging elements in total", name, bad)
		}
	}

	ss, es := r.Sim.Stats, r.Exec.Stats
	counters := []struct {
		name      string
		sim, exec int64
	}{
		{"messages", ss.Messages, es.Messages},
		{"bytes moved", ss.BytesMoved, es.BytesMoved},
		{"broadcasts", ss.Broadcasts, es.Broadcasts},
		{"shifts", ss.Shifts, es.Shifts},
		{"reductions", ss.Reductions, es.Reductions},
		{"merges", ss.Merges, es.Merges},
		{"point-to-point", ss.PointToPoint, es.PointToPoint},
		{"all-to-alls", ss.AllToAlls, es.AllToAlls},
		{"retransmits", ss.Retransmits, es.Retransmits},
		{"duplicates", ss.Duplicates, es.Duplicates},
		{"crashes", ss.Crashes, es.Crashes},
		{"checkpoints", ss.Checkpoints, es.Checkpoints},
		{"checkpoint bytes", ss.CheckpointBytes, es.CheckpointBytes},
		{"recovery bytes", ss.RecoveryBytes, es.RecoveryBytes},
		{"recovery messages", ss.RecoveryMessages, es.RecoveryMessages},
	}
	for _, c := range counters {
		if c.sim != c.exec {
			miss("stats %s: sim %d, exec %d", c.name, c.sim, c.exec)
		}
	}
	if math.Float64bits(r.Sim.Time) != math.Float64bits(r.Exec.Time) {
		miss("simulated time: sim %v, exec %v", r.Sim.Time, r.Exec.Time)
	}

	// Event-level agreement: when both runs were traced, the planned
	// communication each backend observed — split by class — must be
	// structurally identical, and so must the number of reduction
	// collectives. (Time stamps differ by construction: simulated vs wall.)
	if st, et := r.Sim.Trace, r.Exec.Trace; st.Enabled() && et.Enabled() {
		sc, ec := st.SendsByClass(), et.SendsByClass()
		for c := dist.CommNone; c <= dist.CommGeneral; c++ {
			s, e := sc[c], ec[c]
			if s != e {
				miss("trace class %s: sim %d msgs/%d bytes, exec %d msgs/%d bytes",
					c, s.Msgs, s.Bytes, e.Msgs, e.Bytes)
			}
		}
		if s, e := st.KindCount(trace.Reduce), et.KindCount(trace.Reduce); s != e {
			miss("trace reduce events: sim %d, exec %d", s, e)
		}
		if s, e := st.MergedCount(), et.MergedCount(); s != e {
			miss("trace merged partials: sim %d, exec %d", s, e)
		}
		// Per-class fault-protocol events: both backends emit them from the
		// same replayed injector draws, so the counts must coincide.
		for _, k := range []trace.Kind{trace.Fault, trace.Checkpoint, trace.Restart} {
			if s, e := st.KindCount(k), et.KindCount(k); s != e {
				miss("trace %s events: sim %d, exec %d", k, s, e)
			}
		}
	}
}
