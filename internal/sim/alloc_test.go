package sim

import (
	"fmt"
	"testing"

	"phpf/internal/core"
	"phpf/internal/parser"
	"phpf/internal/spmd"
)

// tpSource is the throughput kernel of BenchmarkSimulatorThroughput at a
// chosen trip count: 2*iters*n statement instances, no communication.
func tpSource(n, iters int) string {
	return fmt.Sprintf(`
program tp
parameter n = %d
real a(n), bb(n)
integer i, it
!hpf$ align bb(i) with a(i)
!hpf$ distribute (block) :: a
do it = 1, %d
  do i = 1, n
    a(i) = bb(i) * 0.5 + 1.0
  end do
  do i = 1, n
    bb(i) = a(i)
  end do
end do
end
`, n, iters)
}

// TestZeroAllocationPerStatementInstance guards the lowered interpreter's
// acceptance criterion directly: simulating a compiled program allocates a
// count that depends neither on how many statement instances it executes —
// per instance, expression evaluation, the bounds guard, the owner set and
// the machine charge touch the heap nowhere — nor on how many times its loops
// are entered, nor on how many owner runs an entry is partitioned into:
// partitioning a loop, filling the set table, hoisting the bounds guards and
// listing a quiet run's charges work in scratch the State sized once.
func TestZeroAllocationPerStatementInstance(t *testing.T) {
	allocsOn := func(nprocs, n, iters int) float64 {
		ap, err := parser.Parse(tpSource(n, iters))
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.BuildAndAnalyze(ap, nprocs, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		p := spmd.Generate(res)
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(p, Config{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	allocs := func(n, iters int) float64 { return allocsOn(8, n, iters) }
	short, long := allocs(100, 2), allocs(1000, 20)
	if short != long {
		t.Fatalf("a run of 400 statement instances allocates %v times, one of 40000 instances %v: allocations scale with the trip count",
			short, long)
	}
	// 2 and 400 entries of the outer loop's body: 4 and 800 loop entries, 32
	// and 6400 owner runs on 8 processors.
	if few, many := allocs(100, 2), allocs(100, 400); few != many {
		t.Fatalf("a run of 4 inner-loop entries allocates %v times, one of 800 entries %v: allocations scale with the loop entries",
			few, many)
	}
	// One run an entry and sixteen, their charges listed for one processor
	// and for sixteen.
	if one, sixteen := allocsOn(1, 100, 2), allocsOn(16, 100, 2); one != sixteen || one != short {
		t.Fatalf("a run allocates %v times on 1 processor, %v on 8, %v on 16: allocations scale with the owner runs",
			one, short, sixteen)
	}
	// 23 before quiet runs; their charge list and its processors are two
	// more, the register file of swept runs one.
	if short > 26 {
		t.Fatalf("a run allocates %v times, 26 at most expected: the State's scratch grew", short)
	}
}
