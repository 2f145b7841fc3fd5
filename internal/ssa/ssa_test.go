package ssa

import (
	"testing"

	"phpf/internal/ir"
	"phpf/internal/parser"
)

func buildSSA(t *testing.T, src string) (*ir.Program, *SSA) {
	t.Helper()
	ap, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := ir.Build(ap)
	if err != nil {
		t.Fatalf("ir: %v", err)
	}
	g, err := ir.BuildCFG(p)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	return p, Build(p, g)
}

// findAssign returns the i-th assignment to the named variable (0-based).
func findAssign(p *ir.Program, name string, idx int) *ir.Stmt {
	n := 0
	for _, st := range p.Stmts {
		if st.Kind == ir.SAssign && st.Lhs.Var.Name == name {
			if n == idx {
				return st
			}
			n++
		}
	}
	return nil
}

// findUse returns the i-th use reference of the named variable.
func findUse(p *ir.Program, name string, idx int) *ir.Ref {
	n := 0
	for _, r := range p.Refs {
		if !r.IsDef && r.Var.Name == name {
			if n == idx {
				return r
			}
			n++
		}
	}
	return nil
}

func TestSSAStraightLine(t *testing.T) {
	src := `
program t
real x, y
x = 1.0
y = x
x = 2.0
y = x
end
`
	p, s := buildSSA(t, src)
	use0 := findUse(p, "x", 0)
	use1 := findUse(p, "x", 1)
	d0 := s.DefOf[findAssign(p, "x", 0)]
	d1 := s.DefOf[findAssign(p, "x", 1)]
	if s.UseDef[use0] != d0 {
		t.Errorf("first use of x bound to %v, want %v", s.UseDef[use0], d0)
	}
	if s.UseDef[use1] != d1 {
		t.Errorf("second use of x bound to %v, want %v", s.UseDef[use1], d1)
	}
	if d0.Version == d1.Version {
		t.Error("versions not distinct")
	}
}

func TestSSAIfJoinPhi(t *testing.T) {
	src := `
program t
real x, y, c
if (c > 0.0) then
  x = 1.0
else
  x = 2.0
end if
y = x
end
`
	p, s := buildSSA(t, src)
	use := findUse(p, "x", 0)
	defs := s.ReachingDefs(use)
	if len(defs) != 2 {
		t.Fatalf("reaching defs of x use = %v, want 2", defs)
	}
	d0 := s.DefOf[findAssign(p, "x", 0)]
	d1 := s.DefOf[findAssign(p, "x", 1)]
	got := map[*Value]bool{defs[0]: true, defs[1]: true}
	if !got[d0] || !got[d1] {
		t.Errorf("defs = %v, want {%v %v}", defs, d0, d1)
	}
	// Neither branch def is unique.
	if s.IsUniqueDef(d0) || s.IsUniqueDef(d1) {
		t.Error("branch defs should not be unique reaching defs")
	}
}

func TestSSAIfNoElseIncludesInit(t *testing.T) {
	src := `
program t
real x, y, c
x = 5.0
if (c > 0.0) then
  x = 1.0
end if
y = x
end
`
	p, s := buildSSA(t, src)
	use := findUse(p, "x", 0)
	defs := s.ReachingDefs(use)
	if len(defs) != 2 {
		t.Fatalf("reaching defs = %v, want 2 (x=5 and x=1)", defs)
	}
	for _, d := range defs {
		if d.Kind == VInit {
			t.Error("init value should be shadowed by x=5.0")
		}
	}
}

func TestSSALoopCarried(t *testing.T) {
	src := `
program t
parameter n = 4
real a(n)
real s
integer i
s = 0.0
do i = 1, n
  s = s + a(i)
end do
a(1) = s
end
`
	p, s := buildSSA(t, src)
	// The use of s inside the loop ("s + a(i)") reaches from both the outer
	// s=0 and the loop's own s=s+a(i).
	useIn := findUse(p, "s", 0)
	defs := s.ReachingDefs(useIn)
	if len(defs) != 2 {
		t.Fatalf("reaching defs of inner s use = %v, want 2", defs)
	}
	dOuter := s.DefOf[findAssign(p, "s", 0)]
	dInner := s.DefOf[findAssign(p, "s", 1)]

	// The inner def reaches the inner use only by crossing the back edge.
	loop := p.Loops[0]
	for _, ru := range s.ReachedUses(dInner) {
		if ru.Ref == useIn && !ru.CrossesBackOf.Has(loop) {
			t.Error("inner def reaches inner use without back-edge crossing")
		}
	}
	// The outer def reaches the inner use without crossing.
	for _, ru := range s.ReachedUses(dOuter) {
		if ru.Ref == useIn && ru.CrossesBackOf.Has(loop) {
			t.Error("outer def should reach first-iteration use without crossing")
		}
	}
	// Both defs reach the use of s after the loop.
	useOut := findUse(p, "s", 1)
	defsOut := s.ReachingDefs(useOut)
	if len(defsOut) != 2 {
		t.Errorf("defs after loop = %v, want 2", defsOut)
	}
}

func TestSSAPrivatizablePattern(t *testing.T) {
	// x written then read in the same iteration, not live out: its def
	// reaches only uses inside the loop and never crosses the back edge.
	src := `
program t
parameter n = 4
real b(n), d(n)
real x
integer i
do i = 1, n
  x = b(i)
  d(i) = x
end do
end
`
	p, s := buildSSA(t, src)
	d := s.DefOf[findAssign(p, "x", 0)]
	loop := p.Loops[0]
	rus := s.ReachedUses(d)
	if len(rus) != 1 {
		t.Fatalf("reached uses = %v, want 1", rus)
	}
	ru := rus[0]
	if ru.CrossesBackOf.Has(loop) {
		t.Error("same-iteration use should not cross back edge")
	}
	if !ir.Encloses(loop, ru.Ref.Stmt.Loop) {
		t.Error("use should be inside the loop")
	}
	if !s.IsUniqueDef(d) {
		t.Error("x def should be the unique reaching def")
	}
}

func TestSSAInductionShape(t *testing.T) {
	// m = m + 1 inside a loop: the rhs use of m reaches from the outer
	// m=2 and the increment itself (via back edge).
	src := `
program t
parameter n = 4
real d(n)
integer i, m
m = 2
do i = 1, n
  m = m + 1
  d(m) = 0.0
end do
end
`
	p, s := buildSSA(t, src)
	inc := findAssign(p, "m", 1)
	dInc := s.DefOf[inc]
	loop := p.Loops[0]
	// The increment's def reaches: the rhs use of m (crossing the back
	// edge) and the subscript use in d(m) (same iteration, no crossing).
	var subUse, rhsUse *ir.Ref
	for _, r := range p.Refs {
		if r.IsDef || r.Var.Name != "m" {
			continue
		}
		if r.InSubscript {
			subUse = r
		} else {
			rhsUse = r
		}
	}
	if subUse == nil || rhsUse == nil {
		t.Fatal("uses of m not found")
	}
	for _, ru := range s.ReachedUses(dInc) {
		switch ru.Ref {
		case subUse:
			if ru.CrossesBackOf.Has(loop) {
				t.Error("d(m) use should be same-iteration")
			}
		case rhsUse:
			if !ru.CrossesBackOf.Has(loop) {
				t.Error("m+1 rhs use should cross the back edge")
			}
		}
	}
}

func TestSSAValuesHaveBlocks(t *testing.T) {
	src := `
program t
real x, c
if (c > 0.0) then
  x = 1.0
end if
c = x
end
`
	_, s := buildSSA(t, src)
	for _, v := range s.Values {
		if v.Block == nil {
			t.Errorf("value %v has no block", v)
		}
		if v.Kind == VPhi && len(v.Args) == 0 {
			t.Errorf("phi %v has no args", v)
		}
	}
}

// TestDominatorsBruteForce cross-checks the iterative dominator computation
// against a brute-force reachability definition on a CFG with branches,
// loops and a goto.
func TestDominatorsBruteForce(t *testing.T) {
	src := `
program t
parameter n = 4
real a(n), b(n)
real x
integer i, j
do i = 1, n
  if (b(i) > 0.0) then
    x = b(i)
    if (x > 1.0) goto 100
  else
    x = 0.0
  end if
  do j = 1, n
    a(j) = x
  end do
100 continue
end do
end
`
	ap, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Build(ap)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ir.BuildCFG(p)
	if err != nil {
		t.Fatal(err)
	}
	d := ComputeDom(g)

	// Brute force: a dominates b iff removing a makes b unreachable.
	reachableWithout := func(removed *ir.Block) map[*ir.Block]bool {
		seen := map[*ir.Block]bool{}
		var dfs func(*ir.Block)
		dfs = func(b *ir.Block) {
			if b == removed || seen[b] {
				return
			}
			seen[b] = true
			for _, s := range b.Succs {
				dfs(s)
			}
		}
		dfs(g.Entry)
		return seen
	}
	for _, a := range d.Reachable {
		without := reachableWithout(a)
		for _, b := range d.Reachable {
			want := a == b || !without[b]
			got := d.Dominates(a, b)
			if got != want {
				t.Errorf("Dominates(B%d, B%d) = %v, want %v", a.ID, b.ID, got, want)
			}
		}
	}
}

func TestDomFrontierProperty(t *testing.T) {
	// For every block f in DF(b): b dominates some pred of f, and b does
	// not strictly dominate f.
	src := `
program t
parameter n = 4
real a(n), c(n)
real x
integer i
do i = 1, n
  if (c(i) > 0.0) then
    x = 1.0
  else
    x = 2.0
  end if
  a(i) = x
end do
end
`
	ap, _ := parser.Parse(src)
	p, _ := ir.Build(ap)
	g, _ := ir.BuildCFG(p)
	d := ComputeDom(g)
	for _, b := range d.Reachable {
		for _, f := range d.Frontier[b.ID] {
			domsAPred := false
			for _, pr := range f.Preds {
				if d.IsReachable(pr) && d.Dominates(b, pr) {
					domsAPred = true
				}
			}
			if !domsAPred {
				t.Errorf("B%d in DF(B%d) but B%d dominates no pred", f.ID, b.ID, b.ID)
			}
			if b != f && d.Dominates(b, f) {
				t.Errorf("B%d strictly dominates its frontier member B%d", b.ID, f.ID)
			}
		}
	}
}

// TestSSADefDominatesUse is the core SSA invariant: every non-phi value's
// definition block dominates the block of each of its direct uses (for phi
// arguments, it dominates the corresponding predecessor).
func TestSSADefDominatesUse(t *testing.T) {
	src := `
program t
parameter n = 4
real a(n), c(n)
real x, s
integer i, j
s = 0.0
do i = 1, n
  if (c(i) > 0.0) then
    x = 1.0
  else
    x = 2.0
  end if
  do j = 1, n
    s = s + a(j) * x
  end do
  a(i) = s
end do
end
`
	p, s := buildSSA(t, src)
	blockOf := map[*ir.Stmt]*ir.Block{}
	for _, b := range s.CFG.Blocks {
		for _, st := range b.Stmts {
			blockOf[st] = b
		}
	}
	_ = p
	for _, v := range s.Values {
		for _, u := range v.UseRefs {
			ub := blockOf[u.Stmt]
			if !s.Dom.Dominates(v.Block, ub) {
				t.Errorf("def %v does not dominate use in B%d (stmt s%d)", v, ub.ID, u.Stmt.ID)
			}
		}
		for _, phi := range v.UsePhis {
			for i, a := range phi.Args {
				if a != v {
					continue
				}
				pred := phi.Block.Preds[i]
				if s.Dom.IsReachable(pred) && !s.Dom.Dominates(v.Block, pred) {
					t.Errorf("phi arg %v does not dominate pred B%d of %v", v, pred.ID, phi)
				}
			}
		}
	}
}
