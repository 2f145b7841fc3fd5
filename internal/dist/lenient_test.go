package dist

import (
	"strings"
	"testing"

	"phpf/internal/diag"
	"phpf/internal/ir"
	"phpf/internal/parser"
)

func buildProg(t *testing.T, src string) *ir.Program {
	t.Helper()
	ap, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := ir.Build(ap)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

const lenientSrc = `
program t
parameter n = 16
real a(n), b(n)
integer i
!hpf$ distribute (block) :: nosuch
!hpf$ distribute (block) :: a
!hpf$ align b(i) with missing(i)
do i = 1, n
  a(i) = 1.0
end do
end
`

// TestResolveLenientSkipsBadDirectives: resolution records the problems and
// maps what it can.
func TestResolveLenientSkipsBadDirectives(t *testing.T) {
	p := buildProg(t, lenientSrc)

	m, probs, err := ResolveLenient(p, 4)
	if err != nil {
		t.Fatalf("lenient resolve: %v", err)
	}
	if len(probs) != 2 {
		t.Fatalf("want 2 problems, got %d: %v", len(probs), probs)
	}
	if probs[0].Pos.Line != 6 || !strings.Contains(probs[0].Msg, "nosuch") {
		t.Errorf("problem 0 = %v, want undeclared 'nosuch' at line 6", probs[0])
	}
	if probs[1].Pos.Line != 8 || !strings.Contains(probs[1].Msg, "missing") {
		t.Errorf("problem 1 = %v, want undeclared target 'missing' at line 8", probs[1])
	}
	for v, am := range m.Arrays {
		switch v.Name {
		case "a":
			if am.FullyReplicated() {
				t.Error("valid distribute of a was dropped")
			}
		case "b":
			if !am.FullyReplicated() {
				t.Error("b's align was skipped; it must default to replication")
			}
		}
	}
}

// TestResolveLenientStuckChain: an alignment chain with no resolvable root
// is abandoned as a problem set, one entry per stuck array.
func TestResolveLenientStuckChain(t *testing.T) {
	src := `
program t
parameter n = 16
real a(n), b(n)
integer i
!hpf$ align a(i) with b(i)
!hpf$ align b(i) with a(i)
do i = 1, n
  a(i) = 1.0
end do
end
`
	p := buildProg(t, src)
	m, probs, err := ResolveLenient(p, 4)
	if err != nil {
		t.Fatalf("lenient resolve: %v", err)
	}
	if len(probs) != 2 {
		t.Fatalf("want one problem per stuck array, got %v", probs)
	}
	for _, am := range m.Arrays {
		if !am.FullyReplicated() {
			t.Errorf("stuck-chain array %s should be replicated", am.Var.Name)
		}
	}
}

// TestResolveLenientCleanProgram: no problems on valid directives, and every
// directive took effect.
func TestResolveLenientCleanProgram(t *testing.T) {
	src := `
program t
parameter n = 16
real a(n), b(n)
integer i
!hpf$ align b(i) with a(i)
!hpf$ distribute (block) :: a
do i = 1, n
  a(i) = b(i)
end do
end
`
	p := buildProg(t, src)
	m := mustResolve(t, p, 4)
	for _, name := range []string{"a", "b"} {
		if am := m.Arrays[p.LookupVar(name)]; am == nil || distributedAxes(am) != 1 {
			t.Errorf("%s = %v, want one distributed axis", name, am)
		}
	}
}

// TestResolveLenientBadNprocs: conditions no mapping exists under are still
// hard errors.
func TestResolveLenientBadNprocs(t *testing.T) {
	p := buildProg(t, lenientSrc)
	if _, _, err := ResolveLenient(p, 0); err == nil {
		t.Error("nprocs=0 must remain a hard error")
	}
}

// rankCapSrc implies a rank-8 processor grid twice over: by the PROCESSORS
// extents and by eight distributed dimensions of a. The rank-2 DISTRIBUTE of
// b is fine and must survive.
const rankCapSrc = `
program t
real a(2,2,2,2,2,2,2,2), b(4,4)
!hpf$ processors p(2,2,2,2,2,2,2,2)
!hpf$ distribute (block,block,block,block,block,block,block,block) :: a
!hpf$ distribute (block,block) :: b
a(1,1,1,1,1,1,1,1) = 1.0
end
`

// TestResolveGridRankCap: a directive implying a grid rank above MaxRank is
// a coded, positioned diagnostic — W101 and the directive skipped — never a
// panic or a silently truncated grid.
func TestResolveGridRankCap(t *testing.T) {
	p := buildProg(t, rankCapSrc)

	m, probs, err := ResolveLenient(p, 4)
	if err != nil {
		t.Fatalf("lenient resolve: %v", err)
	}
	if len(probs) != 2 || probs[0].Pos.Line != 4 || probs[1].Pos.Line != 5 {
		t.Fatalf("want the two rank-8 directives (lines 4, 5) skipped, got %v", probs)
	}
	for _, pr := range probs {
		if pr.Code != diag.CodeDirective || pr.Severity != diag.Warning || !strings.Contains(pr.Msg, "rank 8") {
			t.Errorf("problem %v: want a %s warning about rank 8", pr, diag.CodeDirective)
		}
	}
	if got := m.Grid.Rank(); got != 2 {
		t.Fatalf("grid rank = %d, want 2 (from b's distribution alone)", got)
	}
	if a := m.Arrays[p.LookupVar("a")]; a == nil || !a.FullyReplicated() {
		t.Errorf("a = %v, want the replication fallback", a)
	}
	if b := m.Arrays[p.LookupVar("b")]; b == nil || distributedAxes(b) != 2 {
		t.Errorf("b = %v, want both dimensions distributed", b)
	}
}

// TestResolveGridExtentCap: a processor count that cannot be packed into a
// ProcSet is an error, not a panic.
func TestResolveGridExtentCap(t *testing.T) {
	p := buildProg(t, lenientSrc)
	if _, _, err := ResolveLenient(p, MaxExtent+1); err == nil || !strings.Contains(err.Error(), "maximum") {
		t.Fatalf("ResolveLenient(%d procs on a rank-1 grid) = %v, want an extent error", MaxExtent+1, err)
	}
	if _, _, err := ResolveLenient(p, MaxExtent); err != nil {
		t.Fatalf("ResolveLenient(%d procs): %v", MaxExtent, err)
	}
}

// distributedAxes counts the array dimensions the mapping distributes.
func distributedAxes(m *ArrayMap) int {
	n := 0
	for _, ax := range m.Axes {
		if ax.Distributed {
			n++
		}
	}
	return n
}
