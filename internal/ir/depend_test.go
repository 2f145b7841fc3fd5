package ir

import (
	"testing"
)

// refsIn returns the def ref of the idx-th assignment to name, and the
// first rhs use of useName on that statement (or any statement when
// stmtName is "").
func defOf(p *Program, name string, idx int) *Ref {
	n := 0
	for _, st := range p.Stmts {
		if st.Kind == SAssign && st.Lhs.Var.Name == name {
			if n == idx {
				return st.Lhs
			}
			n++
		}
	}
	return nil
}

func useOf(p *Program, name string, idx int) *Ref {
	n := 0
	for _, r := range p.Refs {
		if !r.IsDef && r.Var.Name == name && !r.InSubscript {
			if n == idx {
				return r
			}
			n++
		}
	}
	return nil
}

func TestMayOverlapShiftedSameLoop(t *testing.T) {
	// a(i+1) written, a(i) read in the same loop: loop-carried flow
	// dependence — may overlap.
	p := build(t, `
program t
parameter n = 16
real a(n)
integer i
do i = 2, n-1
  a(i+1) = a(i) * 2.0
end do
end
`)
	def := defOf(p, "a", 0)
	use := useOf(p, "a", 0)
	l := p.Loops[0]
	if !MayOverlapAcross(def, use, l) {
		t.Error("a(i+1) vs a(i) across the i-loop must overlap")
	}
}

func TestDisjointConstantOffsetColumns(t *testing.T) {
	// a(i,1) written, a(i,2) read: dimension 2 differs by a constant.
	p := build(t, `
program t
parameter n = 16
real a(n,n)
integer i
do i = 1, n
  a(i,1) = a(i,2) * 2.0
end do
end
`)
	def := defOf(p, "a", 0)
	use := useOf(p, "a", 0)
	if MayOverlapAcross(def, use, p.Loops[0]) {
		t.Error("a(i,1) vs a(i,2) can never overlap")
	}
}

func TestDGEFAPivotColumnIndependent(t *testing.T) {
	// The trailing update writes a(i,j) for j in k+1..n while reading the
	// pivot column a(i,k): disjoint because j >= k+1 > k. Hoisting out of
	// the j-loop (and i-loop) is legal; out of the k-loop it is not.
	p := build(t, `
program t
parameter n = 16
real a(n,n)
integer i, j, k
do k = 1, n-1
  do j = k+1, n
    do i = k+1, n
      a(i,j) = a(i,j) + a(i,k)
    end do
  end do
end do
end
`)
	def := defOf(p, "a", 0)
	kLoop, jLoop, iLoop := p.Loops[0], p.Loops[1], p.Loops[2]
	// The use of the pivot column is the second rhs use (a(i,j) first).
	use := useOf(p, "a", 1)
	if use == nil || use.Subs[1].String() != "k" {
		t.Fatalf("pivot use not found: %v", use)
	}
	if MayOverlapAcross(def, use, iLoop) {
		t.Error("update vs pivot column must be independent across the i-loop")
	}
	if MayOverlapAcross(def, use, jLoop) {
		t.Error("update vs pivot column must be independent across the j-loop")
	}
	if !MayOverlapAcross(def, use, kLoop) {
		t.Error("across the k-loop the pivot column IS produced by earlier steps")
	}
	// The a(i,j) self-read is same-element: overlaps everywhere.
	selfUse := useOf(p, "a", 0)
	if !MayOverlapAcross(def, selfUse, iLoop) {
		t.Error("a(i,j) self-dependence must overlap")
	}
}

func TestTriangularDisjointness(t *testing.T) {
	// Writing a(j) for j in i+1..n while reading a(i): j > i always.
	p := build(t, `
program t
parameter n = 16
real a(n), b(n)
integer i, j
do i = 1, n-1
  do j = i+1, n
    a(j) = b(j) + a(i)
  end do
end do
end
`)
	def := defOf(p, "a", 0)
	use := useOf(p, "a", 0)
	jLoop := p.Loops[1]
	iLoop := p.Loops[0]
	if MayOverlapAcross(def, use, jLoop) {
		t.Error("a(j), j>i vs a(i) independent across the j-loop")
	}
	if !MayOverlapAcross(def, use, iLoop) {
		t.Error("across the i-loop, a later i reads what an earlier i wrote")
	}
}

func TestNonAffineConservative(t *testing.T) {
	p := build(t, `
program t
parameter n = 16
real a(n)
integer i, m
m = 3
do i = 1, n
  a(m) = a(i) + 1.0
end do
end
`)
	def := defOf(p, "a", 0)
	use := useOf(p, "a", 0)
	if !MayOverlapAcross(def, use, p.Loops[0]) {
		t.Error("non-affine subscript must be conservative (may overlap)")
	}
}

func TestDifferentArraysNeverOverlap(t *testing.T) {
	p := build(t, `
program t
parameter n = 16
real a(n), b(n)
integer i
do i = 1, n
  a(i) = b(i)
end do
end
`)
	def := defOf(p, "a", 0)
	use := useOf(p, "b", 0)
	if MayOverlapAcross(def, use, p.Loops[0]) {
		t.Error("different arrays cannot overlap")
	}
}

func TestSameElementInvariantSubscript(t *testing.T) {
	// a(1) written and a(1) read: same element, overlaps.
	p := build(t, `
program t
parameter n = 16
real a(n)
integer i
do i = 1, n
  a(1) = a(1) + 1.0
end do
end
`)
	def := defOf(p, "a", 0)
	use := useOf(p, "a", 0)
	if !MayOverlapAcross(def, use, p.Loops[0]) {
		t.Error("a(1) vs a(1) must overlap")
	}
}

func TestStrideTwoStillBounded(t *testing.T) {
	// With step 2 the range test still uses lo/hi; a(i) vs a(i+1) may
	// overlap across iterations per the conservative bound (i_d+1 vs i_u
	// ranges intersect), even though parity makes them disjoint — the
	// simple Banerjee bound does not see parity.
	p := build(t, `
program t
parameter n = 16
real a(n)
integer i
do i = 2, n-1, 2
  a(i+1) = a(i) * 2.0
end do
end
`)
	def := defOf(p, "a", 0)
	use := useOf(p, "a", 0)
	if !MayOverlapAcross(def, use, p.Loops[0]) {
		t.Error("conservative result expected for the stride-2 bound test")
	}
}

// TestLoopBoundsAnalysedOnce: a loop carries its bounds as affine forms and
// its step as the constant the run computes (0: not a constant), and
// BoundDelta reads a range in the direction the loop runs.
func TestLoopBoundsAnalysedOnce(t *testing.T) {
	p := build(t, `
program t
parameter n = 16
real a(2*n)
integer i, j, k, l, m
m = 2
do i = 1, n
  do j = i+1, n, 2
    a(j) = a(i)
  end do
end do
do k = n, 1, -1
  a(k+n) = a(k)
end do
do l = 1, n, 5/2
  a(l) = 0.0
end do
do l = 1, n, m
  a(l) = 0.0
end do
end
`)
	steps := []int64{1, 2, -1, 3, 0}
	for i, l := range p.Loops {
		if l.StepConst != steps[i] || !l.Lo.OK || !l.Hi.OK {
			t.Errorf("%s-loop: step %d (want %d), bounds %s..%s", l.Index.Name, l.StepConst, steps[i], l.Lo, l.Hi)
		}
	}
	if lo := p.Loops[1].Lo; lo.String() != "i+1" || lo.Exact != 1<<51 {
		t.Errorf("j's lower bound = %s, exact to %d", lo, lo.Exact)
	}
	// a(k+n) against a(k), k descending from n to 1: k+n−k' ranges over
	// [n+1−n, n+n−1], provably positive — the bounds are (Hi, Lo) = (1, n).
	def, use, kl := defOf(p, "a", 1), useOf(p, "a", 1), p.Loops[2]
	if lo, ok := BoundDelta(use.Subs[0], def.Subs[0], kl.Parent, true); !ok || lo != 1 {
		t.Errorf("min(a(k+n) − a(k')) = %d,%v, want 1", lo, ok)
	}
	if MayOverlapAcross(def, use, kl) {
		t.Error("a(k+n) and a(k) overlap across a descending k-loop")
	}
	// An unknown step bounds nothing.
	def, use = defOf(p, "a", 3), useOf(p, "a", 0)
	if _, ok := BoundDelta(use.Subs[0], def.Subs[0], nil, true); ok {
		t.Error("BoundDelta bounded an index whose loop has an unknown step")
	}
}
