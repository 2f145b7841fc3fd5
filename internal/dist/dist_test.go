package dist

import (
	"slices"
	"testing"
	"testing/quick"

	"phpf/internal/ast"
	"phpf/internal/diag"
	"phpf/internal/ir"
	"phpf/internal/parser"
)

func mkProg(t *testing.T, src string) *ir.Program {
	t.Helper()
	ap, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := ir.Build(ap)
	if err != nil {
		t.Fatalf("ir: %v", err)
	}
	return p
}

func TestGridCoordsRoundTrip(t *testing.T) {
	g := NewGrid(4, 2, 3)
	for id := 0; id < g.Size(); id++ {
		if got := g.ID(g.Coords(id)); got != id {
			t.Errorf("roundtrip %d -> %v -> %d", id, g.Coords(id), got)
		}
	}
	if g.Size() != 24 {
		t.Errorf("size = %d", g.Size())
	}
}

func TestFactorShape(t *testing.T) {
	cases := []struct {
		n, rank int
		want    []int
	}{
		{16, 2, []int{4, 4}},
		{8, 2, []int{4, 2}},
		{16, 1, []int{16}},
		{12, 2, []int{4, 3}},
		{7, 2, []int{7, 1}},
		{1, 2, []int{1, 1}},
		{8, 3, []int{2, 2, 2}},
	}
	for _, c := range cases {
		got := FactorShape(c.n, c.rank)
		if len(got) != len(c.want) {
			t.Errorf("FactorShape(%d,%d) = %v", c.n, c.rank, got)
			continue
		}
		prod := 1
		for i := range got {
			prod *= got[i]
			if got[i] != c.want[i] {
				t.Errorf("FactorShape(%d,%d) = %v, want %v", c.n, c.rank, got, c.want)
				break
			}
		}
		if prod != c.n {
			t.Errorf("FactorShape(%d,%d) product = %d", c.n, c.rank, prod)
		}
	}
}

func TestProcSetBasics(t *testing.T) {
	g := NewGrid(4, 4)
	all := AllProcs(g)
	if !all.IsAll() || all.Count() != 16 {
		t.Errorf("all = %v count=%d", all, all.Count())
	}
	row := all.WithDim(0, 2)
	if row.Count() != 4 {
		t.Errorf("row count = %d", row.Count())
	}
	single := row.WithDim(1, 3)
	id, ok := single.IsSingle()
	if !ok || id != g.ID([]int{2, 3}) {
		t.Errorf("single = %v id=%d", single, id)
	}
	if !row.Contains(id) || !all.Contains(id) {
		t.Error("containment failed")
	}
	u := single.Union(all.WithDim(0, 2).WithDim(1, 1))
	if c, ok := u.Fixed(0); !ok || c != 2 {
		t.Errorf("union fixed dim0 = %v", u)
	}
	if _, ok := u.Fixed(1); ok {
		t.Errorf("union dim1 should be all: %v", u)
	}
	if len(single.Procs()) != 1 || len(row.Procs()) != 4 {
		t.Error("Procs enumeration wrong")
	}
}

// mustResolve resolves a program whose directives are all good: any
// diagnostic fails the test.
func mustResolve(t *testing.T, p *ir.Program, nprocs int) *Mapping {
	t.Helper()
	m, probs, err := ResolveLenient(p, nprocs)
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) > 0 {
		t.Fatalf("clean program produced problems: %v", probs)
	}
	return m
}

func TestResolveBlockDistribution(t *testing.T) {
	p := mkProg(t, `
program t
parameter n = 100
real a(n), b(n)
!hpf$ align (i) with a(i) :: b
!hpf$ distribute (block) :: a
a(1) = 0.0
end
`)
	m := mustResolve(t, p, 4)
	if m.Grid.Rank() != 1 || m.Grid.Shape[0] != 4 {
		t.Fatalf("grid = %v", m.Grid)
	}
	a := m.Arrays[p.LookupVar("a")]
	if !a.Axes[0].Distributed || a.Axes[0].Kind != ast.DistBlock || a.Axes[0].Block != 25 {
		t.Errorf("a axes = %+v", a.Axes)
	}
	// Ownership: element 1 on proc 0, element 26 on proc 1, element 100 on
	// proc 3.
	own := func(arr *ArrayMap, i int64) int {
		id, ok := arr.Owner(m.Grid, []int64{i}).IsSingle()
		if !ok {
			t.Fatalf("owner of %d not single", i)
		}
		return id
	}
	if own(a, 1) != 0 || own(a, 26) != 1 || own(a, 100) != 3 {
		t.Errorf("owners = %d %d %d", own(a, 1), own(a, 26), own(a, 100))
	}
	// b aligned identically.
	b := m.Arrays[p.LookupVar("b")]
	for _, i := range []int64{1, 25, 26, 99, 100} {
		if own(a, i) != own(b, i) {
			t.Errorf("a and b disagree at %d", i)
		}
	}
}

func TestResolveAlignOffset(t *testing.T) {
	p := mkProg(t, `
program t
parameter n = 100
real a(n), b(n)
!hpf$ align b(i) with a(i+1)
!hpf$ distribute (block) :: a
a(1) = 0.0
end
`)
	m := mustResolve(t, p, 4)
	a := m.Arrays[p.LookupVar("a")]
	b := m.Arrays[p.LookupVar("b")]
	// b(i) is aligned with a(i+1): owner(b,25) == owner(a,26).
	oa, _ := a.Owner(m.Grid, []int64{26}).IsSingle()
	ob, _ := b.Owner(m.Grid, []int64{25}).IsSingle()
	if oa != ob {
		t.Errorf("owner(a,26)=%d owner(b,25)=%d", oa, ob)
	}
}

func TestResolveReplicatedAlign(t *testing.T) {
	p := mkProg(t, `
program t
parameter n = 100
real a(n), e(n)
!hpf$ align (i) with a(*) :: e
!hpf$ distribute (block) :: a
a(1) = 0.0
end
`)
	m := mustResolve(t, p, 4)
	e := m.Arrays[p.LookupVar("e")]
	if !e.FullyReplicated() {
		t.Errorf("e = %v, want fully replicated", e)
	}
	if !e.Owner(m.Grid, []int64{5}).IsAll() {
		t.Error("owner of replicated element should be all procs")
	}
}

func TestResolvePartialReplicationAlign(t *testing.T) {
	// b(i) with a(i,*): b distributed like a's rows, replicated across the
	// grid dim of a's columns.
	p := mkProg(t, `
program t
parameter n = 64
real a(n,n), b(n)
!hpf$ align b(i) with a(i,*)
!hpf$ distribute (block,block) :: a
a(1,1) = 0.0
end
`)
	m := mustResolve(t, p, 16)
	if m.Grid.Rank() != 2 {
		t.Fatalf("grid = %v", m.Grid)
	}
	b := m.Arrays[p.LookupVar("b")]
	if !b.Axes[0].Distributed || b.Axes[0].GridDim != 0 {
		t.Errorf("b axes = %+v", b.Axes)
	}
	if !b.Repl[1] || b.Repl[0] {
		t.Errorf("b repl = %v, want [false true]", b.Repl)
	}
	own := b.Owner(m.Grid, []int64{1})
	if c, ok := own.Fixed(0); !ok || c != 0 {
		t.Errorf("owner = %v", own)
	}
	if _, ok := own.Fixed(1); ok {
		t.Errorf("owner should span grid dim 1: %v", own)
	}
	if own.Count() != 4 {
		t.Errorf("owner count = %d, want 4", own.Count())
	}
}

func TestResolveCyclic(t *testing.T) {
	p := mkProg(t, `
program t
parameter n = 10
real a(n,n)
!hpf$ distribute (*,cyclic) :: a
a(1,1) = 0.0
end
`)
	m := mustResolve(t, p, 4)
	a := m.Arrays[p.LookupVar("a")]
	if a.Axes[0].Distributed {
		t.Error("dim 1 should be collapsed")
	}
	owners := make([]int, 0, 8)
	for j := int64(1); j <= 8; j++ {
		id, _ := a.Owner(m.Grid, []int64{3, j}).IsSingle()
		owners = append(owners, id)
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if owners[i] != want[i] {
			t.Errorf("cyclic owners = %v, want %v", owners, want)
			break
		}
	}
}

func TestResolveUnmappedArrayReplicated(t *testing.T) {
	p := mkProg(t, `
program t
parameter n = 8
real a(n), u(n)
!hpf$ distribute (block) :: a
a(1) = u(1)
end
`)
	m := mustResolve(t, p, 4)
	u := m.Arrays[p.LookupVar("u")]
	if !u.FullyReplicated() {
		t.Error("unmapped array should be replicated")
	}
}

func TestResolveErrors(t *testing.T) {
	cases := []string{
		// distribute scalar
		"program t\nreal x\n!hpf$ distribute (block) :: x\nx = 1.0\nend\n",
		// rank mismatch
		"program t\nreal a(4,4)\n!hpf$ distribute (block) :: a\na(1,1) = 0.0\nend\n",
		// double mapping
		"program t\nreal a(4)\n!hpf$ distribute (block) :: a\n!hpf$ distribute (cyclic) :: a\na(1) = 0.0\nend\n",
		// unresolvable alignment chain (target never distributed... b->c->b)
		"program t\nreal b(4), c(4)\n!hpf$ align b(i) with c(i)\n!hpf$ align c(i) with b(i)\nb(1) = 0.0\nend\n",
	}
	for _, src := range cases {
		p := mkProg(t, src)
		_, probs, err := ResolveLenient(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(probs) == 0 || probs[0].Code != diag.CodeDirective || probs[0].Severity != diag.Warning {
			t.Errorf("expected a %s warning, got %v, for:\n%s", diag.CodeDirective, probs, src)
		}
	}
}

// Property: block and cyclic distributions partition the index space — each
// index is owned by exactly one coordinate, and per-coordinate local counts
// sum to the extent.
func TestOwnershipPartitionProperty(t *testing.T) {
	check := func(extentRaw int16, nprocRaw, kindRaw uint8) bool {
		extent := int64(extentRaw) % 500
		if extent < 0 {
			extent = -extent
		}
		extent++
		nproc := int(nprocRaw%16) + 1
		kind := ast.DistBlock
		if kindRaw%2 == 1 {
			kind = ast.DistCyclic
		}
		ax := AxisMap{
			Distributed: true, GridDim: 0, Kind: kind,
			Extent: extent, Block: (extent + int64(nproc) - 1) / int64(nproc),
		}
		counts := make([]int64, nproc)
		for i := int64(1); i <= extent; i++ {
			c := ax.OwnerDim(i, nproc)
			if c < 0 || c >= nproc {
				return false
			}
			counts[c]++
		}
		var sum int64
		for c := 0; c < nproc; c++ {
			if counts[c] != ax.LocalCount(c, nproc) {
				return false
			}
			sum += counts[c]
		}
		return sum == extent
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: grid Coords/ID are inverse bijections.
func TestGridBijectionProperty(t *testing.T) {
	check := func(a, b, c uint8) bool {
		g := NewGrid(int(a%5)+1, int(b%5)+1, int(c%5)+1)
		for id := 0; id < g.Size(); id++ {
			if g.ID(g.Coords(id)) != id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: ProcSet.Union over-approximates membership of both operands.
func TestProcSetUnionProperty(t *testing.T) {
	g := NewGrid(3, 4)
	check := func(a0, a1, b0, b1 uint8) bool {
		mk := func(x0, x1 uint8) ProcSet {
			s := AllProcs(g)
			if x0%2 == 0 {
				s = s.WithDim(0, int(x0)%3)
			}
			if x1%2 == 0 {
				s = s.WithDim(1, int(x1)%4)
			}
			return s
		}
		sa, sb := mk(a0, a1), mk(b0, b1)
		u := sa.Union(sb)
		for id := 0; id < g.Size(); id++ {
			if (sa.Contains(id) || sb.Contains(id)) && !u.Contains(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: on grids of rank 1 to 3, extents 1 to 5, with every dimension
// fixed or free, Contains answers what Procs enumerates, for every processor.
func TestProcSetContainsProperty(t *testing.T) {
	check := func(rank uint8, ext, sel [3]uint8) bool {
		shape := make([]int, int(rank)%3+1)
		for d := range shape {
			shape[d] = int(ext[d])%5 + 1
		}
		g := NewGrid(shape...)
		s := AllProcs(g)
		for d, n := range shape {
			if sel[d]%2 == 0 {
				s = s.WithDim(d, int(sel[d]/2)%n)
			}
		}
		in := make([]bool, g.Size())
		for _, id := range s.Procs() {
			in[id] = true
		}
		for id := range in {
			if s.Contains(id) != in[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestProcSetSingle: on grids of rank 1 to 3, Single(g, id) is processor id
// alone, as IsSingle and Procs read it.
func TestProcSetSingle(t *testing.T) {
	for _, shape := range [][]int{{1}, {5}, {3, 2}, {2, 3, 4}} {
		g := NewGrid(shape...)
		for id := 0; id < g.Size(); id++ {
			s := Single(g, id)
			if got, one := s.IsSingle(); !one || got != id || !slices.Equal(s.Procs(), []int{id}) {
				t.Errorf("grid %v: Single(%d) is %v (IsSingle %d, %v)", shape, id, s.Procs(), got, one)
			}
		}
	}
}

// Property: on grids of every rank up to MaxRank, the packed ProcSet's
// enumeration and summaries agree with membership decoded id by id.
func TestProcSetPackedProperty(t *testing.T) {
	check := func(rank uint8, ext [MaxRank]uint8, fix [MaxRank]uint8, other [MaxRank]uint8) bool {
		shape := make([]int, int(rank)%MaxRank+1)
		for d := range shape {
			shape[d] = int(ext[d])%2 + 2 // >= 2: structure and membership coincide
		}
		g := NewGrid(shape...)
		mk := func(sel [MaxRank]uint8) ProcSet {
			s := AllProcs(g)
			for d, n := range shape {
				if sel[d]%2 == 0 {
					s = s.WithDim(d, int(sel[d]/2)%n)
				}
			}
			return s
		}
		s, o := mk(fix), mk(other)
		var want []int
		covers := true
		for id := 0; id < g.Size(); id++ {
			if s.Contains(id) {
				want = append(want, id)
			}
			if o.Contains(id) && !s.Contains(id) {
				covers = false
			}
		}
		got := s.Procs()
		if len(got) != len(want) || s.Count() != len(want) || s.First() != want[0] {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		id, single := s.IsSingle()
		if single != (len(want) == 1) || (single && id != want[0]) {
			return false
		}
		for d, n := range shape {
			c, fixed := s.Fixed(d)
			if fixed != (fix[d]%2 == 0) || (fixed && c != int(fix[d]/2)%n) {
				return false
			}
		}
		return s.CoversSet(o) == covers && s.IsAll() == (len(want) == g.Size()) && s.IsAll() == s.Equal(AllProcs(g))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
