package core

import (
	"testing"

	"phpf/internal/decide"
	"phpf/internal/dist"
	"phpf/internal/ir"
	"phpf/internal/parser"
	"phpf/internal/programs"
	"phpf/internal/ssa"
)

func analyze(t *testing.T, src string, nprocs int, opts Options) *Result {
	t.Helper()
	ap, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := BuildAndAnalyze(ap, nprocs, opts)
	if err != nil {
		t.Fatalf("BuildAndAnalyze: %v", err)
	}
	return res
}

// scalarMappingOf finds the mapping of the idx-th assignment to name.
func scalarMappingOf(t *testing.T, r *Result, name string, idx int) *ScalarMapping {
	t.Helper()
	n := 0
	for _, st := range r.Prog.Stmts {
		if st.Kind == ir.SAssign && st.Lhs.Var.Name == name {
			if n == idx {
				m := r.ScalarOfStmt(st)
				if m == nil {
					t.Fatalf("no mapping recorded for %s (assignment %d)", name, idx)
				}
				return m
			}
			n++
		}
	}
	t.Fatalf("assignment %d to %s not found", idx, name)
	return nil
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

// TestFigure1Mappings checks every decision the paper walks through in §2.1:
// m is an induction variable privatized without alignment; x aligns with the
// consumer reference d(m)=d(i+1); y aligns with a producer reference (a(i)
// or b(i)); z is privatized without alignment.
func TestFigure1Mappings(t *testing.T) {
	r := analyze(t, figure1, 16, DefaultOptions())

	// m: induction variable, privatized without alignment (paper: "any
	// scalar variable recognized as an induction variable should be
	// privatized without alignment").
	if len(r.Inductions) != 1 || r.Inductions[0].Var.Name != "m" {
		t.Fatalf("inductions = %v", r.Inductions)
	}
	mMap := scalarMappingOf(t, r, "m", 1)
	if mMap.Kind != ScalarNoAlign {
		t.Errorf("m mapping = %v, want private-noalign", mMap)
	}

	// x: aligned with the consumer d(i+1).
	xMap := scalarMappingOf(t, r, "x", 0)
	if xMap.Kind != ScalarAligned || !xMap.TargetIsConsumer {
		t.Fatalf("x mapping = %v, want consumer alignment", xMap)
	}
	if xMap.Target.Var.Name != "d" {
		t.Errorf("x target = %s, want d(...)", xMap.Target)
	}

	// y: aligned with a producer (a(i) or b(i)); consumer a(i+1) rejected
	// because a is written in the loop (inner-loop communication).
	yMap := scalarMappingOf(t, r, "y", 0)
	if yMap.Kind != ScalarAligned || yMap.TargetIsConsumer {
		t.Fatalf("y mapping = %v, want producer alignment", yMap)
	}
	if n := yMap.Target.Var.Name; n != "a" && n != "b" {
		t.Errorf("y target = %s, want a(i) or b(i)", yMap.Target)
	}

	// z: rhs data (e, f) replicated → privatized without alignment.
	zMap := scalarMappingOf(t, r, "z", 0)
	if zMap.Kind != ScalarNoAlign {
		t.Errorf("z mapping = %v, want private-noalign", zMap)
	}
}

// TestFigure1ReplicationStrategy: under the naive strategy everything stays
// replicated.
func TestFigure1ReplicationStrategy(t *testing.T) {
	opts := DefaultOptions()
	opts.Scalars = ScalarsReplicated
	r := analyze(t, figure1, 16, opts)
	for _, name := range []string{"x", "y", "z"} {
		m := scalarMappingOf(t, r, name, 0)
		if m.Kind != ScalarReplicated {
			t.Errorf("%s mapping = %v, want replicated", name, m)
		}
	}
}

// TestFigure1ProducerStrategy: the producer-alignment compiler aligns x and
// y with partitioned rhs references.
func TestFigure1ProducerStrategy(t *testing.T) {
	opts := DefaultOptions()
	opts.Scalars = ScalarsProducerAligned
	r := analyze(t, figure1, 16, opts)
	xMap := scalarMappingOf(t, r, "x", 0)
	if xMap.Kind != ScalarAligned || xMap.TargetIsConsumer {
		t.Fatalf("x mapping = %v, want producer alignment", xMap)
	}
	if n := xMap.Target.Var.Name; n != "b" && n != "c" {
		t.Errorf("x target = %s, want b(i) or c(i)", xMap.Target)
	}
	// z has no partitioned producer → privatized without alignment.
	zMap := scalarMappingOf(t, r, "z", 0)
	if zMap.Kind != ScalarNoAlign {
		t.Errorf("z mapping = %v, want private-noalign", zMap)
	}
}

const figure2 = `
program figure2
parameter n = 64
real h(n,n), g(n,n), a(n), b(n), c(n)
real p, q
integer i
!hpf$ align g(i,j) with h(i,j)
!hpf$ align a(i) with h(i,*)
!hpf$ distribute (block,*) :: h
do i = 1, n
  p = b(i)
  q = c(i)
  a(i) = h(i,p) + g(q,i)
end do
end
`

// TestFigure2SubscriptConsumers: the consumer reference of p (subscript of
// an rhs reference needing no communication) is a(i); for q (subscript of a
// reference that needs communication, so the value must be broadcast) it is
// the dummy replicated reference, keeping q replicated. Because p's rhs
// (b(i), unmapped hence replicated) stays replicated, the end-of-pass rule
// privatizes p without alignment.
func TestFigure2SubscriptConsumers(t *testing.T) {
	r := analyze(t, figure2, 8, DefaultOptions())
	pMap := scalarMappingOf(t, r, "p", 0)
	if pMap.ForcedReplicated {
		t.Error("p should not be forced replicated")
	}
	if pMap.SelectedConsumer == nil || pMap.SelectedConsumer.Var.Name != "a" {
		t.Errorf("p consumer = %v, want a(i)", pMap.SelectedConsumer)
	}
	if pMap.Kind != ScalarNoAlign {
		t.Errorf("p mapping = %v, want private-noalign (replicated rhs)", pMap)
	}
	qMap := scalarMappingOf(t, r, "q", 0)
	if !qMap.ForcedReplicated {
		t.Error("q should be forced replicated (broadcast subscript)")
	}
	if qMap.Kind != ScalarReplicated {
		t.Errorf("q mapping = %v, want replicated (needed on all processors)", qMap)
	}
}

// TestFigure2PartitionedRhsAligned: when p's producer data is partitioned,
// the consumer alignment with a(i) is applied (no-align no longer applies).
func TestFigure2PartitionedRhsAligned(t *testing.T) {
	src := `
program figure2b
parameter n = 64
real h(n,n), g(n,n), a(n), b(n), c(n)
real p
integer i
!hpf$ align g(i,j) with h(i,j)
!hpf$ align a(i) with h(i,*)
!hpf$ align b(i) with h(i,*)
!hpf$ distribute (block,*) :: h
do i = 1, n
  p = b(i)
  a(i) = h(i,p) + 1.0
end do
end
`
	r := analyze(t, src, 8, DefaultOptions())
	pMap := scalarMappingOf(t, r, "p", 0)
	if pMap.Kind != ScalarAligned || pMap.Target.Var.Name != "a" {
		t.Errorf("p mapping = %v, want aligned with a(i)", pMap)
	}
	if !pMap.TargetIsConsumer {
		t.Error("p target should be a consumer reference")
	}
}

const figure5 = `
program figure5
parameter n = 64
real a(n,n), b(n)
real s
integer i, j
!hpf$ align b(i) with a(i,*)
!hpf$ distribute (block,block) :: a
do i = 1, n
  s = 0.0
  do j = 1, n
    s = s + a(i,j)
  end do
  b(i) = s
end do
end
`

// TestFigure5ReductionMapping: s is replicated across the second grid
// dimension (where the j-reduction combines) and aligned with row i of a in
// the first.
func TestFigure5ReductionMapping(t *testing.T) {
	r := analyze(t, figure5, 16, DefaultOptions())
	sMap := scalarMappingOf(t, r, "s", 1) // the update s = s + a(i,j)
	if sMap.Kind != ScalarReduction {
		t.Fatalf("s mapping = %v, want reduction", sMap)
	}
	if len(sMap.RedGridDims) != 1 || sMap.RedGridDims[0] != 1 {
		t.Errorf("reduction grid dims = %v, want [1]", sMap.RedGridDims)
	}
	// Pattern: dim 0 determined by subscript i of a; dim 1 replicated.
	if sMap.Pattern.Dims[0].Repl {
		t.Error("s should be aligned (not replicated) in grid dim 0")
	}
	if !sMap.Pattern.Dims[1].Repl {
		t.Error("s should be replicated in grid dim 1")
	}
	// The initialization s = 0.0 inherits the same mapping.
	initMap := scalarMappingOf(t, r, "s", 0)
	if initMap.Kind != ScalarReduction {
		t.Errorf("s init mapping = %v, want reduction", initMap)
	}
}

// TestFigure5ReductionDisabled: with reduction alignment off, s stays
// replicated (the Table 2 "Default" configuration).
func TestFigure5ReductionDisabled(t *testing.T) {
	opts := DefaultOptions()
	opts.AlignReductions = false
	r := analyze(t, figure5, 16, opts)
	sMap := scalarMappingOf(t, r, "s", 1)
	if sMap.Kind != ScalarReplicated {
		t.Errorf("s mapping = %v, want replicated", sMap)
	}
}

const figure6 = `
program figure6
parameter nx = 8
parameter ny = 8
parameter nz = 8
real c(nx,ny,3), rsd(5,nx,ny,nz)
integer i, j, k
!hpf$ distribute (*,*,block,block) :: rsd
!hpf$ independent, new(c)
do k = 2, nz-1
  do j = 2, ny-1
    do i = 2, nx-1
      c(i,j,1) = rsd(2,i,j,k) + 1.0
    end do
  end do
  do j = 3, ny-1
    do i = 2, nx-1
      rsd(1,i,j,k) = c(i,j-1,1) * 2.0
    end do
  end do
end do
end
`

// TestFigure6PartialPrivatization: c cannot be fully privatized (the
// alignment target's j subscript is only well-defined at level 2, inside
// the NEW loop at level 1), so it is partitioned in the grid dimension of
// rsd's j dimension and privatized along the grid dimension of rsd's k
// dimension.
func TestFigure6PartialPrivatization(t *testing.T) {
	r := analyze(t, figure6, 16, DefaultOptions())
	c := r.Prog.LookupVar("c")
	ap := r.Arrays[c]
	if ap == nil {
		t.Fatal("c not privatized")
	}
	if !ap.Partial {
		t.Fatalf("c privatization = %+v, want partial", ap)
	}
	if ap.Target.Var.Name != "rsd" {
		t.Errorf("target = %s, want rsd(...)", ap.Target)
	}
	// rsd dims 3 (j) and 4 (k) are distributed on grid dims 0 and 1: c is
	// partitioned on grid dim 0 (dim 2 of c, the j dimension) and
	// privatized along grid dim 1.
	if ap.PrivGrid[0] || !ap.PrivGrid[1] {
		t.Errorf("PrivGrid = %v, want [false true]", ap.PrivGrid)
	}
	if !ap.Axes[1].Distributed || ap.Axes[1].GridDim != 0 {
		t.Errorf("partition axes = %+v, want c dim 2 on grid dim 0", ap.Axes)
	}
}

// TestFigure6NoPartialPrivatization: with partial privatization disabled, c
// cannot be privatized at all.
func TestFigure6NoPartialPrivatization(t *testing.T) {
	opts := DefaultOptions()
	opts.PartialPrivatization = false
	r := analyze(t, figure6, 16, opts)
	if ap := r.Arrays[r.Prog.LookupVar("c")]; ap != nil {
		t.Errorf("c privatized = %v, want not privatized", ap)
	}
}

// TestFigure6FullPrivatizationWhenValid: if the consumer only uses c with
// subscripts well-defined at the NEW loop's level, privatization is full.
func TestFigure6FullPrivatizationWhenValid(t *testing.T) {
	src := `
program t
parameter nx = 8
parameter nz = 8
real c(nx), rsd(nx,nz)
integer i, k
!hpf$ distribute (*,block) :: rsd
!hpf$ independent, new(c)
do k = 2, nz-1
  do i = 2, nx-1
    c(i) = 1.0
  end do
  do i = 2, nx-1
    rsd(i,k) = c(i)
  end do
end do
end
`
	r := analyze(t, src, 4, DefaultOptions())
	ap := r.Arrays[r.Prog.LookupVar("c")]
	if ap == nil {
		t.Fatal("c not privatized")
	}
	if ap.Partial {
		t.Errorf("c = %v, want full privatization", ap)
	}
	if !ap.PrivGrid[0] {
		t.Error("grid dim 0 should be privatized")
	}
}

const figure7 = `
program figure7
parameter n = 64
real a(n), b(n), c(n)
integer i
!hpf$ align (i) with a(i) :: b, c
!hpf$ distribute (block) :: a
do i = 1, n
  if (b(i) /= 0.0) then
    a(i) = a(i) / b(i)
    if (b(i) < 0.0) goto 100
  else
    a(i) = c(i)
    c(i) = c(i) * c(i)
  end if
100 continue
end do
end
`

// TestFigure7ControlFlow: both IF statements transfer control only within
// the i-loop, so both are privatized.
func TestFigure7ControlFlow(t *testing.T) {
	r := analyze(t, figure7, 16, DefaultOptions())
	nIf, nPriv := 0, 0
	for _, st := range r.Prog.Stmts {
		if st.Kind == ir.SIf || st.Kind == ir.SIfGoto {
			nIf++
			if r.CtrlPrivatized(st) {
				nPriv++
			}
		}
	}
	if nIf != 2 || nPriv != 2 {
		t.Errorf("privatized %d of %d control statements, want 2 of 2", nPriv, nIf)
	}
}

// TestControlFlowEscapingGoto: a goto leaving the loop defeats privatized
// execution.
func TestControlFlowEscapingGoto(t *testing.T) {
	src := `
program t
parameter n = 8
real a(n), b(n)
integer i
!hpf$ align (i) with a(i) :: b
!hpf$ distribute (block) :: a
do i = 1, n
  if (b(i) < 0.0) goto 200
  a(i) = b(i)
end do
200 continue
end
`
	r := analyze(t, src, 4, DefaultOptions())
	for _, st := range r.Prog.Stmts {
		if st.Kind == ir.SIfGoto && r.CtrlPrivatized(st) {
			t.Error("escaping goto must not be privatized")
		}
	}
}

// TestDGEFAReductionConfinement: with the (*,cyclic) column distribution,
// the pivot search reduction variables are aligned with the current column
// in the (only) grid dimension and need no cross-processor combine — the
// computation is confined to the column's owner (§5.2).
func TestDGEFAReductionConfinement(t *testing.T) {
	src := `
program dgefa
parameter n = 32
real a(n,n)
real t0
integer i, k, l
!hpf$ distribute (*,cyclic) :: a
do k = 1, n-1
  t0 = abs(a(k,k))
  l = k
  do i = k+1, n
    if (abs(a(i,k)) > t0) then
      t0 = abs(a(i,k))
      l = i
    end if
  end do
  a(l,k) = t0
end do
end
`
	r := analyze(t, src, 8, DefaultOptions())
	tMap := scalarMappingOf(t, r, "t0", 1) // conditional update
	if tMap.Kind != ScalarReduction {
		t.Fatalf("t0 mapping = %v, want reduction", tMap)
	}
	if len(tMap.RedGridDims) != 0 {
		t.Errorf("reduction dims = %v, want none (row dim is collapsed)", tMap.RedGridDims)
	}
	if tMap.Pattern.Dims[0].Repl {
		t.Error("t0 should be confined to the column owner, not replicated")
	}
	lMap := scalarMappingOf(t, r, "l", 1)
	if lMap.Kind != ScalarReduction {
		t.Errorf("l mapping = %v, want reduction (maxloc companion)", lMap)
	}
}

// TestScalarUsedInLoopBoundsStaysReplicated: a scalar consumed by a loop
// bound is needed on every processor.
func TestScalarUsedInLoopBoundsStaysReplicated(t *testing.T) {
	src := `
program t
parameter n = 16
real a(n), b(n)
integer i, j, m
!hpf$ distribute (block) :: a
do i = 1, n
  m = i / 2
  do j = 1, m
    a(j) = b(j)
  end do
end do
end
`
	r := analyze(t, src, 4, DefaultOptions())
	mMap := scalarMappingOf(t, r, "m", 0)
	if mMap.Kind != ScalarReplicated {
		t.Errorf("m mapping = %v, want replicated (used in loop bound)", mMap)
	}
}

// TestSiblingDefsShareMapping: both reaching definitions of a use receive
// one mapping.
func TestSiblingDefsShareMapping(t *testing.T) {
	src := `
program t
parameter n = 16
real a(n), b(n), c(n)
real x
integer i
!hpf$ align (i) with a(i) :: b, c
!hpf$ distribute (block) :: a
do i = 1, n
  if (b(i) > 0.0) then
    x = b(i)
  else
    x = c(i)
  end if
  a(i) = x
end do
end
`
	r := analyze(t, src, 4, DefaultOptions())
	m0 := scalarMappingOf(t, r, "x", 0)
	m1 := scalarMappingOf(t, r, "x", 1)
	if m0.Kind != m1.Kind {
		t.Errorf("sibling defs mapped differently: %v vs %v", m0, m1)
	}
	if m0.Kind == ScalarAligned && m1.Kind == ScalarAligned && m0.Target != m1.Target {
		t.Errorf("sibling defs aligned to different targets: %v vs %v", m0.Target, m1.Target)
	}
}

// TestRefPatternConsistency: RefPattern agrees between a scalar's def and
// its uses.
func TestRefPatternConsistency(t *testing.T) {
	r := analyze(t, figure1, 8, DefaultOptions())
	for _, st := range r.Prog.Stmts {
		for _, u := range st.Uses {
			if u.Var.IsArray() {
				continue
			}
			defs := r.SSA.ReachingDefs(u)
			if len(defs) == 0 {
				continue
			}
			upat := r.RefPattern(u)
			for _, d := range defs {
				if d.Kind != ssa.VDef {
					continue
				}
				dm := r.Scalars[d]
				if dm == nil {
					continue
				}
				dpat := r.ScalarPattern(dm)
				if !dist.Covers(dpat, upat) || !dist.Covers(upat, dpat) {
					t.Errorf("pattern mismatch for %s: def %v use %v", u.Var.Name, dpat, upat)
				}
			}
		}
	}
}

// TestDecisionsAlignLevel: every target in the decision record carries the
// AlignLevel the selector's own alignLevel gives it (selected, P=4, the
// paper's figures). Figure 1's x is aligned with d(i+1) at level 1.
func TestDecisionsAlignLevel(t *testing.T) {
	for name, src := range programs.Figures {
		r := analyze(t, src, 4, DefaultOptions())
		byName := map[string]decide.Entry{}
		for _, e := range r.Decisions().Entries {
			byName[e.Kind+" "+e.Name] = e
		}
		check := func(key string, target *ir.Ref) {
			e, ok := byName[key]
			if !ok || e.Target == nil || e.Target.Text != target.String() {
				t.Fatalf("%s: %s has no target %s in the record", name, key, target)
			}
			if want := alignLevel(r.Mapping, target); e.AlignLevel != want {
				t.Errorf("%s: %s: AlignLevel %d in the record, the selector's alignLevel is %d", name, key, e.AlignLevel, want)
			}
		}
		for v, m := range r.Scalars {
			if m.Target != nil {
				check(decide.Scalar+" "+v.String(), m.Target)
			}
		}
		for v, ap := range r.Arrays {
			check(decide.Array+" "+v.Name, ap.Target)
		}
		if e := byName["scalar x.2@s2"]; name == "figure1" && e.AlignLevel != 1 {
			t.Errorf("figure1: x.2@s2 AlignLevel %d, want 1", e.AlignLevel)
		}
	}
}
