package sim

import (
	"testing"

	"phpf/internal/core"
	"phpf/internal/ir"
	"phpf/internal/machine"
	"phpf/internal/parser"
	"phpf/internal/programs"
	"phpf/internal/spmd"
	"phpf/internal/trace"
)

// TestProfileCountsExecutionsOnly: StmtProfile.Instances is how many times
// the statement executed. A statement whose operand arrives by a hoisted
// (vectorized) shift is also charged that communication at loop entry — its
// seconds include it, its instance count must not.
func TestProfileCountsExecutionsOnly(t *testing.T) {
	const trips = 15
	prog := generate(t, `
program t
parameter n = 16
real a(n), b(n)
integer i
!hpf$ distribute (block) :: a
!hpf$ distribute (block) :: b
do i = 2, n
  a(i) = b(i-1) * 2.0
end do
end
`, 4)
	var stmt *ir.Stmt
	for _, st := range prog.Res.Prog.Stmts {
		if st.Kind == ir.SAssign {
			stmt = st
		}
	}
	hoisted := 0
	for _, l := range prog.Res.Prog.Loops {
		if lp := prog.LoopPlanOf(l); lp != nil {
			for _, req := range lp.Hoisted {
				if req.Stmt == stmt {
					hoisted++
				}
			}
		}
	}
	if hoisted != 1 {
		t.Fatalf("test program has %d hoisted requirements for the assignment, want 1", hoisted)
	}

	res, err := Run(prog, Config{Trace: &trace.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time != plain.Time || res.Stats != plain.Stats {
		t.Errorf("attributing changed the run: time %v vs %v, stats %v vs %v", res.Time, plain.Time, res.Stats, plain.Stats)
	}
	if res.Stats.Shifts != 1 {
		t.Fatalf("run charged %d shifts, want the one hoisted shift", res.Stats.Shifts)
	}
	for _, p := range res.HotStatements {
		if p.Stmt != stmt {
			continue
		}
		if p.Instances != trips {
			t.Errorf("Instances = %d, want %d (the loop-entry charge is not an execution)", p.Instances, trips)
		}
		// Seconds keep the hoisted charge: more than the computation alone,
		// which is one multiply per instance on one processor.
		if compute := float64(trips) * float64(prog.PlanOf(stmt).Flops) * machine.SP2().FlopTime; p.Seconds <= compute {
			t.Errorf("Seconds = %v does not include the hoisted shift (compute alone is %v)", p.Seconds, compute)
		}
		return
	}
	t.Fatal("the assignment is missing from the profile")
}

// TestProfilePerInstanceCommunication: a traced run of a program whose
// communication stays inside its loops (TOMCATV with producer alignment pays
// a guard and, off the owner, an element transfer per statement instance)
// attributes that communication to the statement it serves, and changes
// nothing about the run.
func TestProfilePerInstanceCommunication(t *testing.T) {
	ap, err := parser.Parse(programs.TOMCATV(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Scalars = core.ScalarsProducerAligned
	res, err := core.BuildAndAnalyze(ap, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	prog := spmd.Generate(res)

	profiled, err := Run(prog, Config{Trace: &trace.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if profiled.Time != plain.Time || profiled.Stats != plain.Stats {
		t.Errorf("attributing changed the run: time %v vs %v, stats %v vs %v",
			profiled.Time, plain.Time, profiled.Stats, plain.Stats)
	}
	if plain.Stats.PointToPoint == 0 {
		t.Fatal("the run moved no per-instance element: the test program lost its point")
	}
	communicating := 0
	for _, p := range profiled.HotStatements {
		sp := prog.PlanOf(p.Stmt)
		if len(sp.PerInstance) == 0 {
			continue
		}
		communicating++
		// Its pure-flop share, were every instance computed on all processors.
		flops := float64(p.Instances) * float64(sp.Flops) * float64(prog.NProcs()) * machine.SP2().FlopTime
		if p.Seconds <= flops {
			t.Errorf("s%d: Seconds = %v does not include its per-instance communication (its flops are at most %v)",
				p.Stmt.ID, p.Seconds, flops)
		}
	}
	if communicating == 0 {
		t.Fatal("no profiled statement has a per-instance requirement")
	}
}
