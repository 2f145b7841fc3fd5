package exec

import (
	"context"
	"fmt"
	"testing"

	"phpf/internal/programs"
	"phpf/internal/sim"
	"phpf/internal/trace"
)

// TestDifferTraceAgreement extends the differential oracle to event level:
// with tracing on, the per-communication-class message/byte counts and the
// per-statement time attribution of the concurrent executor must equal the
// simulator's exactly, for every program, strategy, and processor count, and
// the concurrent trace must hold only the traffic it alone can record.
// Under -race this also exercises concurrent emission into the per-worker
// shards against the live atomic counters.
func TestDifferTraceAgreement(t *testing.T) {
	for progName, src := range oraclePrograms() {
		for stratName, opts := range strategies() {
			for _, nprocs := range []int{1, 4, 8} {
				src, opts, nprocs := src, opts, nprocs
				t.Run(fmt.Sprintf("%s/%s/p%d", progName, stratName, nprocs), func(t *testing.T) {
					prog := compile(t, src, nprocs, opts)
					if _, serr := sim.Run(prog, sim.Config{}); serr != nil {
						t.Skip("not a runnable program")
					}
					rep, err := Diff(context.Background(), prog, Config{Trace: &trace.Options{}})
					if err != nil {
						t.Fatalf("differ: %v", err)
					}
					if !rep.Match() {
						t.Fatal(rep.String())
					}
					if !rep.Sim.Trace.Enabled() || !rep.Exec.Trace.Enabled() {
						t.Fatal("expected both results to carry a trace")
					}
					onlyTraffic(t, rep.Exec.Trace)
					// The class totals the comparison relied on must come
					// from real activity whenever the stats say messages
					// flowed as planned communication.
					if rep.Sim.Trace.KindCount(trace.Send) == 0 && rep.Sim.Stats.PointToPoint > 0 {
						t.Fatal("sim trace recorded no sends despite point-to-point traffic")
					}
					// So did the per-statement attribution Diff compared.
					if len(rep.Sim.HotStatements) == 0 {
						t.Fatal("a traced run attributed no statement")
					}
				})
			}
		}
	}
}

// onlyTraffic fails unless every event of the concurrent trace r is a Send, a
// Recv or a Wait: the cost model's events are the simulator's trace alone.
func onlyTraffic(t *testing.T, r *trace.Recorder) {
	t.Helper()
	n := r.KindCount(trace.Send) + r.KindCount(trace.Recv) + r.KindCount(trace.Wait)
	if seen := r.Seen(); seen != n {
		t.Fatalf("concurrent trace: %d events, %d of them Send, Recv or Wait", seen, n)
	}
}

// TestOneEventPerPlannedMessage: a planned message is one physical message
// and one trace event on both backends, so the stored planned Send events —
// not only the exact counters — agree. Unvectorized, figure5 and figure1 leave
// every transfer per instance, inside loops, where a transport that coalesced
// runs of them would emit fewer events than the simulator.
func TestOneEventPerPlannedMessage(t *testing.T) {
	opts := strategies()["naive"]
	opts.DisableVectorization = true
	planned := func(r *trace.Recorder) (n int) {
		for _, e := range r.Events() {
			if e.Kind == trace.Send && e.Req >= 0 {
				n++
			}
		}
		return n
	}
	for _, name := range []string{"figure5", "figure1"} {
		prog := compile(t, programs.Figures[name], 3, opts)
		rep, err := Diff(context.Background(), prog, Config{Trace: &trace.Options{}})
		if err != nil {
			t.Fatalf("%s: differ: %v", name, err)
		}
		if !rep.Match() {
			t.Fatalf("%s: %s", name, rep)
		}
		s, e := planned(rep.Sim.Trace), planned(rep.Exec.Trace)
		if s == 0 || s != e {
			t.Errorf("%s: planned Send events: sim %d, exec %d", name, s, e)
		}
	}
}
