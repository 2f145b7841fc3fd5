package eval

import (
	"testing"

	"phpf/internal/core"
	"phpf/internal/ir"
	"phpf/internal/parser"
	"phpf/internal/spmd"
)

func compile(t testing.TB, src string, nprocs int) *spmd.Program {
	t.Helper()
	ap, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cres, err := core.BuildAndAnalyze(ap, nprocs, core.DefaultOptions())
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return spmd.Generate(cres)
}

// redistSrc has an owner-computed loop nest under a privatized predicate (a
// statement that executes on the union of its iteration's owners) followed by
// an executable redistribution, so a State sees both a memoized union set and
// a dynamic remap.
const redistSrc = `
program t
parameter n = 16
real a(n,n)
integer i, j
!hpf$ distribute (block,*) :: a
do i = 1, n
  if (i > 0) then
    do j = 1, n
      a(i,j) = 1.0
    end do
  end if
end do
!hpf$ redistribute a(*,block)
end
`

// TestRedistributeInvalidatesUnionCache is the regression test for the
// stale-union-set bug: ApplyRedistribute swaps the dynamic mapping but, before
// the fix, left the epoch untouched, so a union execution set memoized for the
// current epoch kept being served after the remap. The test witnesses the
// staleness through the loop index: it memoizes the set at one index value,
// changes the index without advancing the epoch (only the walker does that),
// and applies the redistribution — which must invalidate the memo, so the next
// UnionSet call recomputes instead of replaying the stale entry.
func TestRedistributeInvalidatesUnionCache(t *testing.T) {
	p := compile(t, redistSrc, 4)
	s, err := NewState(p)
	if err != nil {
		t.Fatal(err)
	}
	var outer *ir.Loop
	for _, l := range p.Res.Prog.Loops {
		if l.Index.Name == "i" {
			outer = l
		}
	}
	if outer == nil {
		t.Fatal("loop over i not found")
	}
	var redist *ir.Stmt
	for _, st := range p.Res.Prog.Stmts {
		if st.Kind == ir.SRedistribute {
			redist = st
		}
	}
	if redist == nil {
		t.Fatal("redistribute statement not found")
	}

	// Memoize the union set for row 13 (block size 4 on 4 procs -> proc 3).
	s.indices[outer.Index.Slot] = 13
	before := s.UnionSet(outer)
	if got, want := before.Procs(), []int{3}; len(got) != 1 || got[0] != want[0] {
		t.Fatalf("union set at i=13 = %v, want %v", got, want)
	}

	// Move the index without touching the epoch, then redistribute. The
	// remap must bump the epoch; without the bump the next UnionSet call
	// returns the memoized i=13 set.
	s.indices[outer.Index.Slot] = 1
	if err := s.ApplyRedistribute(redist); err != nil {
		t.Fatal(err)
	}
	after := s.UnionSet(outer)
	if got := after.Procs(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("union set after redistribute at i=1 = %v, want [0] (stale memo served?)", got)
	}

	// The remap itself must be visible through the dynamic-mapping view.
	a := p.Res.Prog.LookupVar("a")
	if a == nil {
		t.Fatal("array a not found")
	}
	if s.dyn[a.Slot] == p.Res.Mapping.Arrays[a] {
		t.Error("a's dynamic mapping is still the static one after ApplyRedistribute")
	}
}

// TestSlotViews pins the per-variable accessors and the name-keyed export
// over the slot-indexed state: they must agree, the exported arrays must
// alias the live image, and only assigned scalars are exported.
func TestSlotViews(t *testing.T) {
	p := compile(t, redistSrc, 4)
	s, err := NewState(p)
	if err != nil {
		t.Fatal(err)
	}
	a := p.Res.Prog.LookupVar("a")
	iv := p.Res.Prog.LookupVar("i")
	if a == nil || iv == nil {
		t.Fatal("variables not found")
	}
	if got := len(s.Array(a)); got != 16*16 {
		t.Fatalf("len(Array(a)) = %d, want 256", got)
	}
	s.Array(a)[5] = 42
	scalars, arrays := s.Export()
	if got := arrays["a"][5]; got != 42 {
		t.Fatalf("exported array does not alias the live image: got %v", got)
	}
	if len(arrays) != 1 {
		t.Fatalf("export lists %d arrays, want 1", len(arrays))
	}
	s.indices[iv.Slot] = 7
	if got := s.Index(iv); got != 7 {
		t.Fatalf("Index(i) = %v, want 7", got)
	}
	// Only assigned scalars are exported (loop indices never are).
	if len(scalars) != 0 {
		t.Fatalf("export of a fresh state has %d scalars, want 0", len(scalars))
	}
	if s.Scalar(iv) != 0 {
		t.Fatalf("Scalar of an unassigned variable = %v, want 0", s.Scalar(iv))
	}
	if s.dyn[a.Slot] == nil || s.dyn[a.Slot] != p.Res.Mapping.Arrays[a] {
		t.Fatal("the dynamic mapping misses the distributed array's mapping")
	}
}

// TestRunKeepsOnlyItsSets: inside an owner run the set table may keep only
// what the run's partition holds constant. bb(i-3) below is a local operand
// (no per-instance requirement, so no run set) whose owner changes in the
// middle of a's runs; asked about at every instance, State.OwnerSet must
// answer for the current iteration, not for the one the run began at.
func TestRunKeepsOnlyItsSets(t *testing.T) {
	p := compile(t, `
program t
parameter n = 32
real a(n), bb(n)
integer i
!hpf$ distribute (block) :: a
!hpf$ align bb(i) with a(i)
do i = 4, n
  a(i) = bb(i-3) * 0.5
end do
end
`, 4)
	s, err := NewState(p)
	if err != nil {
		t.Fatal(err)
	}
	check := &setChecker{s: s, o: newOracle(s)}
	inRuns := 0
	if err := Walk(s, countRuns{check, &inRuns}); err != nil {
		t.Fatal(err)
	}
	if check.wrong != "" {
		t.Fatal(check.wrong)
	}
	if inRuns < 20 {
		t.Fatalf("only %d statement instances ran inside owner runs: the loop no longer qualifies, and the test proves nothing", inRuns)
	}
}

// countRuns counts the statement instances a Backend sees inside owner runs.
type countRuns struct {
	Backend
	n *int
}

func (c countRuns) Statement(st *ir.Stmt, sp *spmd.StmtPlan) error {
	if c.Backend.(*setChecker).s.run != 0 {
		*c.n++
	}
	return c.Backend.Statement(st, sp)
}

// BenchmarkSetTableRead times the two set queries a backend makes per
// statement instance where an owner run answers them from the set table:
// inside tp's first run, in a tight loop (the benchmark's in-situ sampling of
// the same calls, bench/layers.go, cannot resolve them: two clock reads
// around a call that does nothing read 17-30 ns there).
func BenchmarkSetTableRead(b *testing.B) {
	p := compile(b, `
program tp
parameter n = 1000
real a(n), bb(n)
integer i
!hpf$ align bb(i) with a(i)
!hpf$ distribute (block) :: a
do i = 1, n
  a(i) = bb(i) * 0.5 + 1.0
end do
end
`, 8)
	s, err := NewState(p)
	if err != nil {
		b.Fatal(err)
	}
	if err := Walk(s, &tableReader{b: b, s: s}); err != nil {
		b.Fatal(err)
	}
}

type tableReader struct {
	nopOracleBackend
	b    *testing.B
	s    *State
	done bool
}

func (*tableReader) Tick() error { return nil }

func (r *tableReader) Statement(st *ir.Stmt, sp *spmd.StmtPlan) error {
	if r.done || r.s.run == 0 {
		return nil
	}
	r.done = true
	r.b.ResetTimer()
	for i := 0; i < r.b.N; i++ {
		if _, err := r.s.ExecSet(sp); err != nil {
			return err
		}
		if _, err := r.s.OwnerSet(st.Lhs); err != nil {
			return err
		}
	}
	r.b.StopTimer()
	return nil
}

// TestRegistersGrowOnce: a State that meets strips of 20, 50 and 100
// iterations allocates its register file twice, 32 values a register and then
// strip, not once per doubling of the longest strip.
func TestRegistersGrowOnce(t *testing.T) {
	s := &State{code: &code{nreg: 3}}
	allocs := testing.AllocsPerRun(10, func() {
		s.regs, s.width = nil, 0
		for _, m := range []int64{20, 50, 100} {
			s.registers(m)
		}
	})
	if allocs != 2 || s.width != strip || len(s.regs) != 3*strip {
		t.Errorf("%v allocations, width %d and %d values, want 2, %d and %d", allocs, s.width, len(s.regs), strip, 3*strip)
	}
}
