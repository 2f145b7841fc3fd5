package core

import (
	"fmt"
	"testing"

	"phpf/internal/ir"
)

// collapsedSrc reads a through an index array in a collapsed dimension;
// keyStmt, when non-empty, is placed inside the i-loop ahead of the read.
func collapsedSrc(keyStmt string) string {
	return fmt.Sprintf(`
program collapsed
parameter n = 16
real a(n,n), b(n,n)
integer key(n)
real x
integer i, j
!hpf$ align b(i,j) with a(i,j)
!hpf$ distribute (*,block) :: a
do i = 1, n
  key(i) = mod(i*5, n) + 1
end do
do j = 2, n
  do i = 1, n
    %s
    x = a(key(i), j-1)
    b(i,j) = x
  end do
end do
end
`, keyStmt)
}

// TestHoistableFollowsIndexArray: the one hoisting test looks through the
// subscripts of the use. With key filled before the nest, the read of
// a(key(i), j-1) may leave both loops (the non-affine subscript sits in a
// collapsed dimension); once the i-loop itself writes key, a message gathered
// at the loop's entry would be built from stale subscripts, so the read must
// stay inside — for the planner and the selector alike, who ask the same
// function.
func TestHoistableFollowsIndexArray(t *testing.T) {
	for _, tc := range []struct {
		keyStmt string
		want    bool
	}{
		{"", true},
		{"key(i) = mod(i*j, n) + 1", false},
	} {
		res := analyze(t, collapsedSrc(tc.keyStmt), 4, DefaultOptions())
		var use, target *ir.Ref
		for _, st := range res.Prog.Stmts {
			if st.Kind != ir.SAssign {
				continue
			}
			if st.Lhs.Var.Name == "b" {
				target = st.Lhs
			}
			for _, u := range st.Uses {
				if u.Var.Name == "a" {
					use = u
				}
			}
		}
		if use == nil || target == nil {
			t.Fatal("test program is broken: no read of a or write of b")
		}
		src, dst := res.RefPattern(use), res.RefPattern(target)
		for l := use.Stmt.Loop; l != nil; l = l.Parent {
			if got := res.Hoistable(use, src, dst, l); got != tc.want {
				t.Errorf("key written in loop %q: Hoistable(%s, %s-loop) = %v, want %v",
					tc.keyStmt, use, l.Index.Name, got, tc.want)
			}
		}
	}
}

// TestOneSetOfReductions: the analyze pass and the reduceplan pass read the
// same recognition — the plan's decisions are about the very *Reduction
// values the result lists, not a second set to be re-joined by statement.
func TestOneSetOfReductions(t *testing.T) {
	res := analyze(t, figure5, 4, DefaultOptions())
	if len(res.Reductions) == 0 || len(res.Reductions) != len(res.ReducePlan.Decisions) {
		t.Fatalf("%d reductions, %d decisions", len(res.Reductions), len(res.ReducePlan.Decisions))
	}
	for i, red := range res.Reductions {
		if res.ReducePlan.Decisions[i].Red != red {
			t.Errorf("decision %d classifies a different recognition of %s", i, red.Var.Name)
		}
	}
	for _, m := range res.Scalars {
		if m.Kind == ScalarReduction && res.ReducePlan.Of(m.Red.Stmt).Red != m.Red {
			t.Errorf("mapping of %s holds a different recognition than the plan", m.Def.Var.Name)
		}
	}
}
