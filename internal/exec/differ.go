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
	"phpf/internal/machine"
	"phpf/internal/sim"
	"phpf/internal/spmd"
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
// planned messages each backend traced, per communication class, in messages
// and bytes, and to the per-statement time attribution, bit for bit. The
// cost model's other events (computation, reductions, merges, faults,
// checkpoints, restarts) are the simulator's trace alone; their counts follow
// from the Stats compared here. An
// error means a backend failed to run (or the configuration is unusable for
// differential testing); a completed report with mismatches means the
// backends disagree.
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
	execCfg.MaxSeconds = 0
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

// counter is one named counter of the cost model's Stats in a reference
// account (want) and a compared one (got).
type counter struct {
	name      string
	want, got int64
}

// counters pairs every counter of two accounts' Stats: the one list through
// which the differential oracle and the replicated-account check compare them.
func counters(want, got machine.Stats) []counter {
	return []counter{
		{"messages", want.Messages, got.Messages},
		{"bytes moved", want.BytesMoved, got.BytesMoved},
		{"broadcasts", want.Broadcasts, got.Broadcasts},
		{"shifts", want.Shifts, got.Shifts},
		{"reductions", want.Reductions, got.Reductions},
		{"merges", want.Merges, got.Merges},
		{"point-to-point", want.PointToPoint, got.PointToPoint},
		{"all-to-alls", want.AllToAlls, got.AllToAlls},
		{"retransmits", want.Retransmits, got.Retransmits},
		{"duplicates", want.Duplicates, got.Duplicates},
		{"crashes", want.Crashes, got.Crashes},
		{"checkpoints", want.Checkpoints, got.Checkpoints},
		{"checkpoint bytes", want.CheckpointBytes, got.CheckpointBytes},
		{"recovery bytes", want.RecoveryBytes, got.RecoveryBytes},
		{"recovery messages", want.RecoveryMessages, got.RecoveryMessages},
	}
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

	for _, c := range counters(r.Sim.Stats, r.Exec.Stats) {
		if c.want != c.got {
			miss("stats %s: sim %d, exec %d", c.name, c.want, c.got)
		}
	}
	if math.Float64bits(r.Sim.Time) != math.Float64bits(r.Exec.Time) {
		miss("simulated time: sim %v, exec %v", r.Sim.Time, r.Exec.Time)
	}

	// Event-level agreement: when both runs were traced, the planned
	// communication each backend observed — split by class — must be
	// identical. (Time stamps differ by construction: simulated vs wall.)
	if st, et := r.Sim.Trace, r.Exec.Trace; st.Enabled() && et.Enabled() {
		sc, ec := st.SendsByClass(), et.SendsByClass()
		for c := dist.CommNone; c <= dist.CommGeneral; c++ {
			s, e := sc[c], ec[c]
			if s != e {
				miss("trace class %s: sim %d msgs/%d bytes, exec %d msgs/%d bytes",
					c, s.Msgs, s.Bytes, e.Msgs, e.Bytes)
			}
		}
		// The per-statement attribution is the accountant's on both, made of
		// the same charges in the same order: equal statement by statement.
		sh, eh := r.Sim.HotStatements, r.Exec.HotStatements
		if len(sh) != len(eh) {
			miss("hot statements: sim %d, exec %d", len(sh), len(eh))
		}
		for i := 0; i < len(sh) && i < len(eh); i++ {
			s, e := sh[i], eh[i]
			if s.Stmt.ID != e.Stmt.ID || s.Instances != e.Instances ||
				math.Float64bits(s.Seconds) != math.Float64bits(e.Seconds) {
				miss("hot statement %d: sim s%d %d instances %v s, exec s%d %d instances %v s",
					i, s.Stmt.ID, s.Instances, s.Seconds, e.Stmt.ID, e.Instances, e.Seconds)
			}
		}
	}
}
