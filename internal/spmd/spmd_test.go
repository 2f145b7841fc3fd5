package spmd

import (
	"strings"
	"testing"

	"phpf/internal/core"
	"phpf/internal/ir"
	"phpf/internal/parser"
)

func gen(t *testing.T, src string, nprocs int, opts core.Options) *Program {
	t.Helper()
	ap, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := core.BuildAndAnalyze(ap, nprocs, opts)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return Generate(res)
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

func TestGenerateFigure1Guards(t *testing.T) {
	p := gen(t, figure1, 16, core.DefaultOptions())
	for _, st := range p.Res.Prog.Stmts {
		sp := p.PlanOf(st)
		if sp == nil {
			t.Fatalf("no plan for s%d", st.ID)
		}
		if st.Kind != ir.SAssign {
			continue
		}
		switch st.Lhs.Var.Name {
		case "a", "d":
			if sp.Kind != ExecOwner || sp.OwnerRef != st.Lhs {
				t.Errorf("%s guard = %v, want owner(lhs)", st.Lhs, sp.Kind)
			}
		case "x", "y":
			if sp.Kind != ExecOwner {
				t.Errorf("%s guard = %v, want owner(target)", st.Lhs.Var.Name, sp.Kind)
			}
		case "z":
			if sp.Kind != ExecUnion {
				t.Errorf("z guard = %v, want union", sp.Kind)
			}
		case "m":
			if st.Loop != nil && sp.Kind != ExecUnion {
				t.Errorf("m guard = %v, want union", sp.Kind)
			}
		}
	}
}

func TestGenerateFlops(t *testing.T) {
	p := gen(t, figure1, 4, core.DefaultOptions())
	for _, st := range p.Res.Prog.Stmts {
		if st.Kind != ir.SAssign {
			continue
		}
		if p.PlanOf(st).Flops < 1 {
			t.Errorf("s%d flops = %d", st.ID, p.PlanOf(st).Flops)
		}
	}
}

func TestGenerateReductionCombine(t *testing.T) {
	src := `
program red
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
	p := gen(t, src, 16, core.DefaultOptions())
	jLoop := p.Res.Prog.Loops[1]
	lp := p.LoopPlanOf(jLoop)
	if lp == nil || len(lp.Combines) != 1 {
		t.Fatalf("j-loop combines = %v, want 1", lp)
	}
	if lp.Combines[0].Var().Name != "s" {
		t.Errorf("combine var = %s", lp.Combines[0].Var().Name)
	}
	// The update statement executes on the owners of a(i,j).
	for _, st := range p.Res.Prog.Stmts {
		if st.Kind == ir.SAssign && st.Lhs.Var.Name == "s" && st.Loop != nil && st.Loop.Index.Name == "j" {
			sp := p.PlanOf(st)
			if sp.Kind != ExecOwner || sp.OwnerRef.Var.Name != "a" {
				t.Errorf("update guard = %v owner=%v, want owner(a(i,j))", sp.Kind, sp.OwnerRef)
			}
		}
	}
}

func TestDumpContainsGuardsAndComm(t *testing.T) {
	p := gen(t, figure1, 16, core.DefaultOptions())
	d := p.Dump()
	for _, want := range []string{"do i", "owner(", "[union]", "[comm", "end do"} {
		if !strings.Contains(d, want) {
			t.Errorf("dump missing %q:\n%s", want, d)
		}
	}
}

func TestGenerateControlGuards(t *testing.T) {
	src := `
program f7
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
	p := gen(t, src, 8, core.DefaultOptions())
	for _, st := range p.Res.Prog.Stmts {
		if st.Kind == ir.SIf {
			if p.PlanOf(st).Kind != ExecUnion {
				t.Errorf("if guard = %v, want union", p.PlanOf(st).Kind)
			}
		}
	}
	// Without control privatization: ExecAll.
	opts := core.DefaultOptions()
	opts.PrivatizeControlFlow = false
	p2 := gen(t, src, 8, opts)
	for _, st := range p2.Res.Prog.Stmts {
		if st.Kind == ir.SIf {
			if p2.PlanOf(st).Kind != ExecAll {
				t.Errorf("if guard = %v, want all", p2.PlanOf(st).Kind)
			}
		}
	}
}

func TestDumpCoversAllStatementKinds(t *testing.T) {
	src := `
program t
parameter n = 8
real a(n,n), b(n)
integer i
!hpf$ distribute (block,*) :: a
do i = 1, n
  if (b(i) < 0.0) goto 100
  a(i,1) = b(i)
  goto 200
100 continue
  a(i,2) = 0.0
200 continue
end do
!hpf$ redistribute a(*,block)
a(1,1) = 1.0
end
`
	p := gen(t, src, 4, core.DefaultOptions())
	d := p.Dump()
	for _, want := range []string{"goto 100", "goto 200", "100 continue",
		"redistribute a", "do i", "end do"} {
		if !strings.Contains(d, want) {
			t.Errorf("dump missing %q:\n%s", want, d)
		}
	}
}

func TestGenerateIfGotoGuard(t *testing.T) {
	src := `
program t
parameter n = 8
real a(n), b(n)
integer i
!hpf$ align b(i) with a(i)
!hpf$ distribute (block) :: a
do i = 1, n
  if (b(i) < 0.0) goto 100
  a(i) = b(i)
100 continue
end do
end
`
	p := gen(t, src, 4, core.DefaultOptions())
	for _, st := range p.Res.Prog.Stmts {
		if st.Kind == ir.SIfGoto {
			if p.PlanOf(st).Kind != ExecUnion {
				t.Errorf("ifgoto guard = %v, want union (label inside loop)", p.PlanOf(st).Kind)
			}
		}
	}
}

func TestExecKindStrings(t *testing.T) {
	want := map[ExecKind]string{ExecAll: "all", ExecOwner: "owner",
		ExecPattern: "pattern", ExecUnion: "union"}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("%d = %q, want %q", int(k), k.String(), w)
		}
	}
}
