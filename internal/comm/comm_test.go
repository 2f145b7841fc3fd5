package comm

import (
	"strings"
	"testing"

	"phpf/internal/core"
	"phpf/internal/dist"
	"phpf/internal/ir"
	"phpf/internal/parser"
)

func plan(t *testing.T, src string, nprocs int, opts core.Options) *Plan {
	t.Helper()
	ap, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := core.BuildAndAnalyze(ap, nprocs, opts)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return Analyze(res)
}

const figure1 = `
program figure1
parameter n = 100
real a(n), b(n), c(n), d(n), e(n), f(n)
real x, y, z
integer i, m
!hpf$ align (i) with a(i) :: b, c, d
!hpf$ align (i) with a(*) :: e, f
!hpf$ distribute (block) :: a
m = 2
do i = 2, n-1
  m = m + 1
  x = b(i) + c(i)
  y = a(i) + b(i)
  z = e(i) + f(i)
  a(i+1) = y / z
  d(m) = x / z
end do
end
`

// reqFor finds the requirement for the use of variable v on the idx-th
// assignment to lhsName.
func reqFor(p *Plan, lhsName, useName string) *Requirement {
	for _, r := range p.Reqs {
		st := r.Stmt
		if st.Kind == ir.SAssign && st.Lhs.Var.Name == lhsName && r.Use.Var.Name == useName {
			return r
		}
	}
	return nil
}

// TestFigure1SelectedCommPlan: with selected alignment, the only
// communications in the loop are vectorized shifts (b and c to the owner of
// d(i+1), and y to the owner of a(i+1), which is a per-instance shift
// because y is produced in the loop).
func TestFigure1SelectedCommPlan(t *testing.T) {
	p := plan(t, figure1, 16, core.DefaultOptions())
	// b(i) and c(i) feed x, which is aligned with the consumer d(i+1):
	// shift communications, vectorized out of the i-loop.
	for _, name := range []string{"b", "c"} {
		r := reqFor(p, "x", name)
		if r == nil {
			t.Fatalf("no requirement for %s on x's statement", name)
		}
		if r.Class != dist.CommShift {
			t.Errorf("%s class = %v, want shift", name, r.Class)
		}
		if !r.Vectorized() {
			t.Errorf("%s communication not vectorized", name)
		}
	}
	// x itself needs no communication at d(m) (aligned with its consumer).
	if r := reqFor(p, "d", "x"); r != nil {
		t.Errorf("x should need no communication at its consumer: %v", r)
	}
	// y is aligned with the producer a(i): no communication computing y...
	if r := reqFor(p, "y", "a"); r != nil {
		t.Errorf("a(i) should be local to y's statement: %v", r)
	}
	if r := reqFor(p, "y", "b"); r != nil {
		t.Errorf("b(i) should be local to y's statement: %v", r)
	}
	// ...but y must move to the owner of a(i+1), per instance (y is
	// produced in the loop).
	r := reqFor(p, "a", "y")
	if r == nil {
		t.Fatal("y should need communication at a(i+1)")
	}
	if r.Vectorized() {
		t.Errorf("y's communication cannot be vectorized (produced in loop): %v", r)
	}
	// z is privatized without alignment: no communication anywhere.
	if r := reqFor(p, "a", "z"); r != nil {
		t.Errorf("z should need no communication: %v", r)
	}
	if r := reqFor(p, "d", "z"); r != nil {
		t.Errorf("z should need no communication: %v", r)
	}
}

// TestFigure1ProducerCommPlan: with producer alignment, x sits with b(i)
// and must be sent to the owner of d(i+1) in every iteration — the
// inner-loop communication the paper blames for the Table 1 middle column.
func TestFigure1ProducerCommPlan(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Scalars = core.ScalarsProducerAligned
	p := plan(t, figure1, 16, opts)
	r := reqFor(p, "d", "x")
	if r == nil {
		t.Fatal("x should need communication at d(i+1) under producer alignment")
	}
	if r.Vectorized() {
		t.Errorf("x's communication should be per-instance: %v", r)
	}
}

// TestFigure1ReplicatedCommPlan: with replication, the scalar statements
// execute on all processors and their partitioned inputs must be broadcast.
func TestFigure1ReplicatedCommPlan(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Scalars = core.ScalarsReplicated
	p := plan(t, figure1, 16, opts)
	r := reqFor(p, "x", "b")
	if r == nil {
		t.Fatal("b should need communication to replicated x")
	}
	if r.Class != dist.CommBcast {
		t.Errorf("class = %v, want broadcast", r.Class)
	}
	// a(i) feeding replicated y cannot be hoisted (a written in the loop).
	ra := reqFor(p, "y", "a")
	if ra == nil {
		t.Fatal("a should need broadcast to replicated y")
	}
	if ra.Vectorized() {
		t.Errorf("a's broadcast must stay in the loop: %v", ra)
	}
}

// TestFigure7NoPredicateComm: with control privatization, the predicate
// b(i) is owned by the processors executing the guarded statements — no
// communication (the paper's §4 point).
func TestFigure7NoPredicateComm(t *testing.T) {
	src := `
program figure7
parameter n = 64
real a(n), b(n), c(n)
integer i
!hpf$ align (i) with a(i) :: b, c
!hpf$ distribute (block) :: a
do i = 1, n
  if (b(i) /= 0.0) then
    a(i) = a(i) / b(i)
  else
    a(i) = c(i)
  end if
end do
end
`
	p := plan(t, src, 16, core.DefaultOptions())
	for _, r := range p.Reqs {
		if r.Stmt.Kind == ir.SIf {
			t.Errorf("privatized predicate should need no communication: %v", r)
		}
	}

	// Without control privatization the predicate executes everywhere and
	// b(i) must be broadcast per iteration.
	opts := core.DefaultOptions()
	opts.PrivatizeControlFlow = false
	p2 := plan(t, src, 16, opts)
	found := false
	for _, r := range p2.Reqs {
		if r.Stmt.Kind == ir.SIf && r.Use.Var.Name == "b" {
			found = true
			if r.Class != dist.CommBcast {
				t.Errorf("predicate comm class = %v, want broadcast", r.Class)
			}
		}
	}
	if !found {
		t.Error("expected broadcast requirement for unprivatized predicate")
	}
}

// TestStencilShiftVectorized: a classic shifted read is a vectorized shift.
func TestStencilShiftVectorized(t *testing.T) {
	src := `
program stencil
parameter n = 64
real a(n), b(n)
integer i
!hpf$ align b(i) with a(i)
!hpf$ distribute (block) :: a
do i = 2, n-1
  a(i) = b(i-1) + b(i+1)
end do
end
`
	p := plan(t, src, 8, core.DefaultOptions())
	nshift := 0
	for _, r := range p.Reqs {
		if r.Class != dist.CommShift {
			t.Errorf("unexpected class %v for %v", r.Class, r)
		}
		if !r.Vectorized() {
			t.Errorf("stencil shift not vectorized: %v", r)
		}
		nshift++
	}
	if nshift != 2 {
		t.Errorf("got %d shift requirements, want 2", nshift)
	}
	// Deltas are -1 and +1 along grid dim 0.
	deltas := map[int64]bool{}
	for _, r := range p.Reqs {
		d, _ := r.SrcPat.Dims[0].Shift(r.DstPat.Dims[0])
		deltas[d] = true
	}
	if !deltas[1] || !deltas[-1] {
		t.Errorf("shift deltas = %v, want {-1, +1}", deltas)
	}
}

// TestLocalLoopNoComm: a perfectly aligned loop needs no communication at
// all.
func TestLocalLoopNoComm(t *testing.T) {
	src := `
program local
parameter n = 64
real a(n), b(n)
integer i
!hpf$ align b(i) with a(i)
!hpf$ distribute (block) :: a
do i = 1, n
  a(i) = b(i) * 2.0
end do
end
`
	p := plan(t, src, 8, core.DefaultOptions())
	if len(p.Reqs) != 0 {
		t.Errorf("expected no requirements, got:\n%s", p.Summary())
	}
}

// TestSummaryAndCounts exercises the diagnostics.
func TestSummaryAndCounts(t *testing.T) {
	p := plan(t, figure1, 16, core.DefaultOptions())
	s := p.Summary()
	if !strings.Contains(s, "shift") {
		t.Errorf("summary missing shifts:\n%s", s)
	}
	counts := p.CountByClass()
	if counts[dist.CommShift] == 0 {
		t.Errorf("counts = %v", counts)
	}
}

// TestExecPattern: the exported exec-pattern accessor matches expectations
// for the three guard flavors.
func TestExecPattern(t *testing.T) {
	src := `
program t
parameter n = 16
real a(n), b(n), e(n)
real x, z
integer i
!hpf$ align b(i) with a(i)
!hpf$ align (i) with a(*) :: e
!hpf$ distribute (block) :: a
do i = 1, n
  x = b(i) * 2.0
  z = e(i) + 1.0
  a(i) = x + z
end do
end
`
	ap, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.BuildAndAnalyze(ap, 4, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Prog.Stmts {
		if st.Kind != ir.SAssign {
			continue
		}
		pat := res.ExecPattern(st)
		switch st.Lhs.Var.Name {
		case "a":
			if pat.IsReplicated() {
				t.Error("a(i) should execute on its owner only")
			}
		case "x":
			// Aligned with the consumer a(i): same pattern as a's.
			if pat.IsReplicated() {
				t.Error("x should execute on owner(a(i))")
			}
		case "z":
			// Privatized without alignment: executes on the iteration's
			// union — here the owners of a(i).
			if pat.IsReplicated() {
				t.Error("z's union should narrow to the iteration's owners")
			}
		}
	}
}
