package exec

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"phpf/internal/core"
	"phpf/internal/programs"
	"phpf/internal/sim"
	"phpf/internal/trace"
)

// TestReduceDifferMatrix is the deterministic-merge oracle: for both
// reduce-sweep kernels, every mapping strategy, processor counts 1..8, and
// both runtime reduction strategies, the concurrent executor must agree
// with the simulator bit-for-bit — scalars, arrays, all cost-model
// statistics (including the merge counter); the simulator's trace counts the
// merged rows. The tree merge's fold order is a pure function of the
// processor count, which is exactly what this pins. Run under -race this is
// also the concurrency soak for the merge-verification protocol.
func TestReduceDifferMatrix(t *testing.T) {
	kernels := map[string]string{
		"histogram": programs.Histogram(96, 16, 2),
		"dotsweep":  programs.DotSweep(16, 12),
	}
	for progName, src := range kernels {
		for stratName, opts := range strategies() {
			for _, nprocs := range []int{1, 2, 4, 8} {
				for _, mode := range []core.ReduceMode{core.ReduceCollective, core.ReducePrivatize} {
					src, opts, nprocs, mode := src, opts, nprocs, mode
					t.Run(fmt.Sprintf("%s/%s/p%d/%s", progName, stratName, nprocs, mode), func(t *testing.T) {
						prog := compile(t, src, nprocs, opts)
						rep, err := Diff(context.Background(), prog, Config{Trace: &trace.Options{}, Reduce: mode})
						if err != nil {
							t.Fatalf("differ: %v", err)
						}
						if !rep.Match() {
							t.Fatal(rep.String())
						}
						merged := rep.Sim.Trace.MergedCount()
						switch {
						case mode == core.ReduceCollective && rep.Sim.Stats.Merges != 0:
							t.Errorf("collective run tree-merged %d times", rep.Sim.Stats.Merges)
						case mode == core.ReducePrivatize && nprocs > 1 && (rep.Sim.Stats.Merges == 0 || merged == 0):
							t.Errorf("privatized run recorded merges=%d, traced merged=%d, want both > 0",
								rep.Sim.Stats.Merges, merged)
						case mode == core.ReducePrivatize && nprocs == 1 && merged != 0:
							// A single processor has nothing to combine: no
							// merge event on either backend.
							t.Errorf("P=1 privatized run traced merged=%d, want 0", merged)
						}
					})
				}
			}
		}
	}
}

// TestReduceStrategyTrafficAdvantage pins the mechanism behind the reduce
// sweep's headline: privatizing the histogram removes the per-instance
// general communication entirely (every contribution accumulates locally),
// so modeled message counts — not just simulated time — must drop.
func TestReduceStrategyTrafficAdvantage(t *testing.T) {
	prog := compile(t, programs.Histogram(96, 16, 2), 8, core.DefaultOptions())
	coll, err := sim.Run(prog, sim.Config{Reduce: core.ReduceCollective})
	if err != nil {
		t.Fatal(err)
	}
	priv, err := sim.Run(prog, sim.Config{Reduce: core.ReducePrivatize})
	if err != nil {
		t.Fatal(err)
	}
	if priv.Stats.Messages >= coll.Stats.Messages {
		t.Errorf("privatized moved %d messages, collective %d — expected strictly fewer",
			priv.Stats.Messages, coll.Stats.Messages)
	}
	if priv.Time >= coll.Time {
		t.Errorf("privatized time %v, collective %v — expected strictly faster", priv.Time, coll.Time)
	}
}

// TestCollectiveBlockSum: under the collective reduction commSource's block
// sum is handed from each block's processor to the next at the block
// boundary, then to the combine's members, so exec ends with the sequential
// sum, 195 (the hand-off once skipped every boundary, and exec summed the
// last block alone: 146 at P = 2, 85 at P = 3 and 4).
func TestCollectiveBlockSum(t *testing.T) {
	for _, nprocs := range []int{2, 3, 4} {
		prog := compile(t, commSource, nprocs, core.DefaultOptions())
		rep, err := Diff(context.Background(), prog, Config{Reduce: core.ReduceCollective})
		if err != nil {
			t.Fatalf("p%d: %v", nprocs, err)
		}
		if !rep.Match() {
			t.Errorf("p%d: %s", nprocs, rep.String())
		}
		if s := rep.Exec.Scalars["s"]; s != 195 {
			t.Errorf("p%d: exec s = %v, want 195", nprocs, s)
		}
	}
}

// TestCollectiveFigure5RowSums: Figure 5 sums each row of a into s across the
// reduction grid dimension's BLOCK boundaries, but the figure never assigns a,
// so its all-zero sums agree however many boundaries a hand-off loses. With a
// filled first, exec's collective b(i) must be the row's sequential sum, bit
// for bit — which it was not while the hand-off skipped block boundaries.
func TestCollectiveFigure5RowSums(t *testing.T) {
	const n = 64
	fill := "do i = 1, n\n  do j = 1, n\n    a(i,j) = i + 0.001*j\n  end do\nend do\n"
	at := strings.Index(programs.Figure5, "do i = 1, n")
	src := programs.Figure5[:at] + fill + programs.Figure5[at:]
	for _, nprocs := range []int{4, 8} {
		prog := compile(t, src, nprocs, core.DefaultOptions())
		rep, err := Diff(context.Background(), prog, Config{Reduce: core.ReduceCollective})
		if err != nil {
			t.Fatalf("p%d: %v", nprocs, err)
		}
		if !rep.Match() {
			t.Errorf("p%d: %s", nprocs, rep.String())
		}
		b := rep.Exec.Arrays["b"]
		if len(b) != n {
			t.Fatalf("p%d: b has %d elements, want %d", nprocs, len(b), n)
		}
		for i := 1; i <= n; i++ {
			s := 0.0
			for j := 1; j <= n; j++ {
				s += float64(i) + 0.001*float64(j)
			}
			if got := b[i-1]; math.Float64bits(got) != math.Float64bits(s) {
				t.Errorf("p%d: exec b(%d) = %v, want the row sum %v", nprocs, i, got, s)
				break
			}
		}
	}
}

// nanMax is a max reduction whose first contribution is a NaN, sqrt(-1.0): the
// sequential max never lets a NaN win (max(m, e) keeps m unless e > m), so m
// ends at sqrt(14).
const nanMax = `
program nanmax
parameter n = 16
real a(n), m
integer i
!hpf$ distribute (block) :: a
do i = 1, n
  a(i) = i
end do
m = -1.0
do i = 1, n
  m = max(m, sqrt(a(i) - 2.0))
end do
end
`

// TestPrivatizedMaxIgnoresNaN: privatized, each processor's partial folds the
// contributions with the intrinsic's own element function, and so do the tree
// merge and the fold into m — where math.Max once let the NaN win every fold
// it met and m ended NaN under -reduce auto alone. Both backends, both
// runtime strategies, one processor and four, must agree with the sequential
// value bit for bit.
func TestPrivatizedMaxIgnoresNaN(t *testing.T) {
	want := math.Sqrt(14)
	for _, nprocs := range []int{1, 4} {
		for _, mode := range []core.ReduceMode{core.ReduceCollective, core.ReduceAuto} {
			prog := compile(t, nanMax, nprocs, core.DefaultOptions())
			rep, err := Diff(context.Background(), prog, Config{Reduce: mode})
			if err != nil {
				t.Fatalf("p%d %s: %v", nprocs, mode, err)
			}
			if !rep.Match() {
				t.Errorf("p%d %s: %s", nprocs, mode, rep.String())
			}
			if mode == core.ReduceAuto && nprocs > 1 && rep.Sim.Stats.Merges == 0 {
				t.Errorf("p%d %s: no merge, so the reduction did not run privatized", nprocs, mode)
			}
			for side, m := range map[string]float64{"sim": rep.Sim.Scalars["m"], "exec": rep.Exec.Scalars["m"]} {
				if math.Float64bits(m) != math.Float64bits(want) {
					t.Errorf("p%d %s: %s m = %v, want %v", nprocs, mode, side, m, want)
				}
			}
		}
	}
}
