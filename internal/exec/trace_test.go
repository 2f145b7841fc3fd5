package exec

import (
	"context"
	"fmt"
	"testing"

	"phpf/internal/sim"
	"phpf/internal/trace"
)

// TestDifferTraceAgreement extends the differential oracle to event level:
// with tracing on, the per-communication-class message/byte counts and the
// reduction-collective count recorded by the concurrent executor must equal
// the simulator's exactly, for every program, strategy, and processor count.
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
					// The class totals the comparison relied on must come
					// from real activity whenever the stats say messages
					// flowed as planned communication.
					if rep.Sim.Trace.KindCount(trace.Send) == 0 && rep.Sim.Stats.PointToPoint > 0 {
						t.Fatal("sim trace recorded no sends despite point-to-point traffic")
					}
				})
			}
		}
	}
}
