package dist

import (
	"strings"
	"testing"

	"phpf/internal/ir"
	"phpf/internal/parser"
	"phpf/internal/programs"
)

// mkPatternEnv builds a program with two aligned arrays and one offset
// array in an i-loop, returning the refs and loop used by pattern tests.
func mkPatternEnv(t *testing.T) (*ir.Program, *Mapping, map[string]*ir.Ref) {
	t.Helper()
	src := `
program t
parameter n = 100
real a(n), b(n), e(n), g(n,n)
integer i, m
!hpf$ align b(i) with a(i)
!hpf$ align (i) with a(*) :: e
!hpf$ distribute (block) :: a
!hpf$ distribute (*,cyclic) :: g
m = 1
do i = 2, n-1
  a(i) = b(i) + b(i-1) + e(i) + g(1,i) + a(m)
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
	m := mustResolve(t, p, 4)
	refs := map[string]*ir.Ref{}
	for _, r := range p.Refs {
		key := r.String()
		if r.IsDef {
			key = "def:" + key
		}
		refs[key] = r
	}
	return p, m, refs
}

func patOf(m *Mapping, r *ir.Ref) OwnerPattern {
	return PatternOf(m.Grid, m.Arrays[r.Var], r)
}

func TestPatternCoversAligned(t *testing.T) {
	_, m, refs := mkPatternEnv(t)
	lhs := patOf(m, refs["def:a(i)"])
	bi := patOf(m, refs["b(i)"])
	if !Covers(bi, lhs) || !Covers(lhs, bi) {
		t.Errorf("b(i) and a(i) should cover each other: %v vs %v", bi, lhs)
	}
}

func TestPatternShiftClassification(t *testing.T) {
	_, m, refs := mkPatternEnv(t)
	lhs := patOf(m, refs["def:a(i)"])
	bm1 := patOf(m, refs["b((i - 1))"])
	if Covers(bm1, lhs) {
		t.Error("b(i-1) does not cover a(i)")
	}
	if got := Classify(bm1, lhs); got != CommShift {
		t.Errorf("classify(b(i-1) -> a(i)) = %v, want shift", got)
	}
}

func TestPatternReplicatedSourceCovers(t *testing.T) {
	_, m, refs := mkPatternEnv(t)
	lhs := patOf(m, refs["def:a(i)"])
	e := patOf(m, refs["e(i)"])
	if !e.IsReplicated() {
		t.Fatalf("e should be replicated: %v", e)
	}
	if !Covers(e, lhs) {
		t.Error("replicated data covers everything")
	}
	if got := Classify(e, lhs); got != CommNone {
		t.Errorf("classify = %v, want none", got)
	}
}

func TestPatternBroadcastClassification(t *testing.T) {
	_, m, refs := mkPatternEnv(t)
	bi := patOf(m, refs["b(i)"])
	repl := ReplicatedPattern(m.Grid)
	if got := Classify(bi, repl); got != CommBcast {
		t.Errorf("classify(partitioned -> all) = %v, want broadcast", got)
	}
}

func TestPatternGeneralClassification(t *testing.T) {
	_, m, refs := mkPatternEnv(t)
	lhs := patOf(m, refs["def:a(i)"])
	am := patOf(m, refs["a(m)"]) // non-affine subscript
	if got := Classify(am, lhs); got != CommGeneral {
		t.Errorf("classify(a(m) -> a(i)) = %v, want general", got)
	}
	// Different distribution kinds are also general.
	g := patOf(m, refs["g(1,i)"])
	if got := Classify(g, lhs); got != CommGeneral {
		t.Errorf("classify(cyclic -> block) = %v, want general", got)
	}
}

func TestPatternCloneIsolation(t *testing.T) {
	_, m, refs := mkPatternEnv(t)
	p1 := patOf(m, refs["b(i)"])
	p2 := p1.Clone()
	p2.Dims[0] = DimPattern{Repl: true}
	if p1.Dims[0].Repl {
		t.Error("Clone shares the Dims slice")
	}
}

func TestPatternVariesInLoop(t *testing.T) {
	p, m, refs := mkPatternEnv(t)
	loop := p.Loops[0]
	bi := patOf(m, refs["b(i)"])
	if !bi.VariesInLoop(loop) {
		t.Error("b(i)'s owner varies with i")
	}
	e := patOf(m, refs["e(i)"])
	if e.VariesInLoop(loop) {
		t.Error("replicated pattern varies nowhere")
	}
}

func TestPatternString(t *testing.T) {
	_, m, refs := mkPatternEnv(t)
	s := patOf(m, refs["b(i)"]).String()
	if !strings.Contains(s, "block") {
		t.Errorf("pattern string = %q", s)
	}
	if rs := ReplicatedPattern(m.Grid).String(); rs != "<*>" {
		t.Errorf("replicated string = %q", rs)
	}
}

func TestProcSetCoversSetAndEqual(t *testing.T) {
	g := NewGrid(4, 2)
	all := AllProcs(g)
	row := all.WithDim(0, 1)
	cell := row.WithDim(1, 0)
	if !all.CoversSet(row) || !row.CoversSet(cell) {
		t.Error("covers relation broken")
	}
	if cell.CoversSet(row) || row.CoversSet(all) {
		t.Error("covers relation too permissive")
	}
	if !row.Equal(all.WithDim(0, 1)) || row.Equal(cell) {
		t.Error("equality broken")
	}
	if s := cell.String(); s != "P(1,0)" {
		t.Errorf("string = %q", s)
	}
	if row.Grid() != g {
		t.Error("Grid accessor wrong")
	}
}

func TestGridString(t *testing.T) {
	if s := NewGrid(4, 4).String(); s != "(4x4)" {
		t.Errorf("grid string = %q", s)
	}
}

func TestArrayMapHelpers(t *testing.T) {
	p, m, _ := mkPatternEnv(t)
	a := m.Arrays[p.LookupVar("a")]
	if distributedAxes(a) != 1 || !a.Axes[0].Distributed {
		t.Errorf("distributed axes = %v, want the first only", a.Axes)
	}
	// Block over 100 elements on 4 procs: 25 each.
	for c := 0; c < 4; c++ {
		if n := a.LocalElems(m.Grid, []int{c}); n != 25 {
			t.Errorf("local elems at %d = %d", c, n)
		}
	}
	if s := a.String(); !strings.Contains(s, "block") {
		t.Errorf("array map string = %q", s)
	}
	g := m.Arrays[p.LookupVar("g")]
	// g is (*,cyclic): 100 columns over 4 procs = 25 each, times 100 rows.
	if n := g.LocalElems(m.Grid, []int{0}); n != 2500 {
		t.Errorf("g local elems = %d", n)
	}
}

// TestOwnerPatternsNonDegenerate: every distributed axis a resolution makes,
// and every partitioned dimension of every owner pattern, has a block and an
// extent of at least 1 — the IR rejects extents below 1, grid extents are
// positive, Block is ceil(Extent/shape) and PatternOf pins the dimensions no
// axis reaches at Block 1 and Extent 1 — so no alignment target's pattern is
// degenerate. The sources are the corpus programs and the parser's fuzz
// seeds, resolved leniently at several processor counts.
func TestOwnerPatternsNonDegenerate(t *testing.T) {
	srcs := []string{
		programs.TOMCATV(17, 2), programs.TOMCATV(65, 3), programs.DGEFA(16), programs.DGEFA(96),
		programs.APPSP(6, 6, 6, 1, true), programs.APPSP(6, 6, 6, 1, false),
		programs.Smooth(64, 2), programs.Histogram(64, 16, 2), programs.DotSweep(16, 12),
		"program t\ndo i = 1, 10\nend\n",
		"program t\nreal a(2,2,2,2,2,2,2,2)\n!hpf$ processors p(2,2,2,2,2,2,2,2)\n" +
			"!hpf$ distribute (block,block,block,block,block,block,block,block) :: a\na(1,1,1,1,1,1,1,1) = 1.0\nend\n",
		lenientSrc,
	}
	for _, f := range []map[string]string{programs.Figures, programs.FiguresUnannotated} {
		for _, src := range f {
			srcs = append(srcs, src)
		}
	}
	checked := 0
	for _, src := range srcs {
		ap, err := parser.Parse(src)
		if err != nil {
			continue
		}
		p, err := ir.Build(ap)
		if err != nil {
			continue
		}
		for _, procs := range []int{1, 3, 4, 16, 64} {
			m, _, err := ResolveLenient(p, procs)
			if err != nil {
				continue
			}
			bad := func(what string, ax AxisMap) {
				if ax.Distributed && (ax.Block < 1 || ax.Extent < 1) {
					t.Errorf("%s: P=%d: %s has block %d, extent %d", p.Name, procs, what, ax.Block, ax.Extent)
				}
			}
			for v, am := range m.Arrays {
				for _, ax := range am.Axes {
					bad(v.Name+"'s axis", ax)
				}
			}
			for _, r := range p.Refs {
				if am := m.Arrays[r.Var]; am != nil {
					for _, d := range PatternOf(m.Grid, am, r).Dims {
						if !d.Repl {
							bad("the pattern of "+r.String(), d.AxisMap)
							checked++
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no partitioned pattern dimension checked")
	}
}
