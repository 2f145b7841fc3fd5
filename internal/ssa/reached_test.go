package ssa

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"phpf/internal/ir"
	"phpf/internal/programs"
)

// pathWalk is ReachedUses as a walk over (value, crossing set) states with
// one map per set, the form the dense fixpoint replaced: the reference the
// fixpoint is held to.
func pathWalk(s *SSA, def *Value) map[*ir.Ref]map[*ir.Loop]bool {
	type state struct {
		val     *Value
		crossed map[*ir.Loop]bool
	}
	union := func(a, b map[*ir.Loop]bool) map[*ir.Loop]bool {
		out := map[*ir.Loop]bool{}
		for l := range a {
			out[l] = true
		}
		for l := range b {
			out[l] = true
		}
		return out
	}
	seen := map[*Value]map[*ir.Loop]bool{}
	uses := map[*ir.Ref]map[*ir.Loop]bool{}
	work := []state{{val: def, crossed: map[*ir.Loop]bool{}}}
	for len(work) > 0 {
		st := work[len(work)-1]
		work = work[:len(work)-1]
		if prev, ok := seen[st.val]; ok {
			grows := false
			for l := range st.crossed {
				grows = grows || !prev[l]
			}
			if !grows {
				continue
			}
		}
		seen[st.val] = union(seen[st.val], st.crossed)
		for _, u := range st.val.UseRefs {
			uses[u] = union(uses[u], st.crossed)
		}
		for _, phi := range st.val.UsePhis {
			crossed := st.crossed
			if phi.HeaderLoop != nil && s.isBackEdgeArg(phi, st.val) {
				crossed = union(crossed, map[*ir.Loop]bool{phi.HeaderLoop: true})
			}
			work = append(work, state{phi, crossed})
		}
	}
	return uses
}

// phiWalk is ReachingDefs as a recursive walk with a visited map.
func phiWalk(s *SSA, use *ir.Ref) []*Value {
	seen := map[*Value]bool{}
	var out []*Value
	var walk func(v *Value)
	walk = func(v *Value) {
		if v == nil || seen[v] {
			return
		}
		seen[v] = true
		if v.Kind != VPhi {
			out = append(out, v)
			return
		}
		for _, a := range v.Args {
			walk(a)
		}
	}
	walk(s.UseDef[use])
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// manyLoops has more loops than a word of a LoopSet holds: a scalar carried
// through 70 loops in a row and a nest of three.
func manyLoops() string {
	var b strings.Builder
	b.WriteString("program many\nreal s, t, a(10)\ninteger i, j, k\ns = 0.0\n")
	for n := 0; n < 70; n++ {
		fmt.Fprintf(&b, "do i = 1, 10\n  t = s\n  s = t + a(i)\nend do\n")
	}
	b.WriteString("do i = 1, 10\n  do j = 1, 10\n    do k = 1, 10\n      if (s > t) then\n        s = s + 1.0\n      end if\n      t = s\n    end do\n  end do\nend do\na(1) = s + t\nend\n")
	return b.String()
}

// TestReachedUsesMatchesPathWalk: on every figure, every kernel and a program
// of 73 loops, ReachedUses of every value names the uses, in ref ID order,
// and the crossed loops that the per-path walk finds, and ReachingDefs of
// every use the values the recursive walk finds.
func TestReachedUsesMatchesPathWalk(t *testing.T) {
	sources := map[string]string{"many": manyLoops()}
	for name, src := range programs.Figures {
		sources[name] = src
	}
	sources["tomcatv"] = programs.TOMCATV(17, 2)
	sources["dgefa"] = programs.DGEFA(16)
	sources["appsp"] = programs.APPSP(6, 6, 6, 1, true)
	sources["smooth"] = programs.Smooth(16, 2)
	sources["histogram"] = programs.Histogram(32, 8, 2)
	sources["dotsweep"] = programs.DotSweep(16, 4)
	crossings := 0
	for name, src := range sources {
		p, s := buildSSA(t, src)
		if name == "many" && len(p.Loops) <= 64 {
			t.Fatalf("many has %d loops", len(p.Loops))
		}
		for _, def := range s.Values {
			want := pathWalk(s, def)
			got := s.ReachedUses(def)
			if len(got) != len(want) {
				t.Fatalf("%s: %v reaches %d uses, the path walk %d", name, def, len(got), len(want))
			}
			for i, ru := range got {
				if i > 0 && got[i-1].Ref.ID >= ru.Ref.ID {
					t.Fatalf("%s: %v's uses are not in ref ID order", name, def)
				}
				for _, l := range p.Loops {
					if ru.CrossesBackOf.Has(l) != want[ru.Ref][l] {
						t.Fatalf("%s: %v reaches %s crossing the %d-loop: %v, the path walk %v",
							name, def, ru.Ref, l.ID, ru.CrossesBackOf.Has(l), want[ru.Ref][l])
					}
					if want[ru.Ref][l] {
						crossings++
					}
				}
			}
		}
		for _, r := range p.Refs {
			got, want := s.ReachingDefs(r), phiWalk(s, r)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: %s is reached by %v, the recursive walk %v", name, r, got, want)
			}
		}
	}
	if crossings == 0 {
		t.Fatal("no use crosses a back edge")
	}
}
