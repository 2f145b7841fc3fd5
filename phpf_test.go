package phpf

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"phpf/internal/programs"
)

func TestCompileAndRunQuickstart(t *testing.T) {
	src := `
program quick
parameter n = 64
real a(n), b(n)
real x
integer i
!hpf$ align b(i) with a(i)
!hpf$ distribute (block) :: a
do i = 2, n-1
  x = b(i-1) + b(i+1)
  a(i) = x * 0.5
end do
end
`
	c, err := Compile(src, 8, SelectedOptions())
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Execute(context.Background(), Simulator(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Time <= 0 {
		t.Error("time should be positive")
	}
	if out.Arrays["a"] == nil {
		t.Error("final memory missing")
	}
}

func TestCompileError(t *testing.T) {
	if _, err := Compile("program t\nx = 1\nend\n", 4, SelectedOptions()); err == nil {
		t.Error("expected error for undeclared variable")
	}
	if _, err := Compile("program t\n(((\nend\n", 4, SelectedOptions()); err == nil {
		t.Error("expected parse error")
	}
}

func TestReports(t *testing.T) {
	src, ok := FigureSource("figure1")
	if !ok {
		t.Fatal("figure1 missing")
	}
	c, err := Compile(src, 16, SelectedOptions())
	if err != nil {
		t.Fatal(err)
	}
	mr := c.MappingReport()
	for _, want := range []string{"grid", "aligned", "private-noalign", "induction m"} {
		if !strings.Contains(mr, want) {
			t.Errorf("mapping report missing %q:\n%s", want, mr)
		}
	}
	cr := c.CommReport()
	if !strings.Contains(cr, "shift") {
		t.Errorf("comm report missing shifts:\n%s", cr)
	}
	dump := c.DumpSPMD()
	if !strings.Contains(dump, "do i") || !strings.Contains(dump, "owner(") {
		t.Errorf("SPMD dump incomplete:\n%s", dump)
	}
}

func TestFigureNames(t *testing.T) {
	names := FigureNames()
	if len(names) != 6 {
		t.Errorf("figures = %v", names)
	}
	for _, n := range names {
		if _, ok := FigureSource(n); !ok {
			t.Errorf("figure %s missing", n)
		}
	}
	if _, ok := FigureSource("nope"); ok {
		t.Error("unknown figure should be reported missing")
	}
}

func TestOptionPresets(t *testing.T) {
	if NaiveOptions().Scalars != ScalarsReplicated || NaiveOptions().AlignReductions {
		t.Error("NaiveOptions wrong")
	}
	if ProducerOptions().Scalars != ScalarsProducerAligned {
		t.Error("ProducerOptions wrong")
	}
	if SelectedOptions().Scalars != ScalarsSelected || !SelectedOptions().PartialPrivatization {
		t.Error("SelectedOptions wrong")
	}
}

// runTable runs a declared table and holds its rendering to the byte-exact
// golden file testdata/tables/<golden>.golden.
func runTable(t *testing.T, tbl *Table, golden string) []Row {
	t.Helper()
	if err := tbl.Run(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "tables", golden+".golden"), tbl.String())
	return tbl.Rows
}

func TestTable1Small(t *testing.T) {
	rows := runTable(t, Table1TOMCATV(17, 1, []int{1, 4}, 0), "table1")
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// At 4 processors the paper's ordering holds.
	r := rows[1].Cells
	replication, producer, selected := r[0], r[1], r[2]
	if !(selected.Seconds < producer.Seconds && producer.Seconds < replication.Seconds) {
		t.Errorf("ordering violated: %+v", r)
	}
}

func TestTable2Small(t *testing.T) {
	rows := runTable(t, Table2DGEFA(48, []int{2, 8}, 0), "table2")
	for _, r := range rows {
		def, aligned := r.Cells[0], r.Cells[1]
		if aligned.Seconds > def.Seconds*(1+1e-6) {
			t.Errorf("aligned should never lose at P=%d: %+v", r.Procs, r)
		}
	}
	// The gap grows with the processor count (the paper's "increasing
	// percentage of the execution time").
	last := rows[len(rows)-1]
	if last.Cells[1].Seconds >= last.Cells[0].Seconds {
		t.Errorf("aligned should win at P=%d: %+v", last.Procs, last)
	}
}

func TestTable3Small(t *testing.T) {
	r := runTable(t, Table3APPSP(4, 8, 8, 1, []int{4}, 0), "table3")[0].Cells
	oneDNoPriv, oneDPriv, twoDNoPartial, twoDPartial := r[0], r[1], r[2], r[3]
	if oneDPriv.Seconds >= oneDNoPriv.Seconds {
		t.Errorf("1-D privatization should win: %+v", r)
	}
	if twoDPartial.Seconds >= twoDNoPartial.Seconds {
		t.Errorf("2-D partial privatization should win: %+v", r)
	}
	// A limit the slow columns exceed pins the aborted rendering too.
	for _, row := range runTable(t, Table3APPSP(4, 8, 8, 1, []int{2, 4}, 0.001), "table3_aborted") {
		if !row.Cells[0].Aborted {
			t.Errorf("P=%d: the 1-D no-privatization run should hit the limit: %+v", row.Procs, row.Cells[0])
		}
	}
}

// TestReduceSweepSmall: the privatized runtime beats the collective
// reference on both reduce-sweep kernels, and the rendering is pinned.
func TestReduceSweepSmall(t *testing.T) {
	tbl := ReduceSweep([]DiffProgram{
		{Name: "Histogram(n=64,m=8,niter=2)", Source: programs.Histogram(64, 8, 2)},
		{Name: "DotSweep(n=16,m=8)", Source: programs.DotSweep(16, 8)},
	}, []int{2, 4}, 0)
	if err := tbl.Run(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "tables", "reducesweep.golden"), FormatReduceSweep(tbl))
	for _, r := range tbl.Rows {
		if coll, priv := r.Cells[0], r.Cells[1]; priv.Seconds >= coll.Seconds || priv.Stats.Merges == 0 {
			t.Errorf("%s P=%d: privatized %+v should beat collective %+v by merging", r.Label, r.Procs, priv, coll)
		}
	}
}

func TestCellAbortedString(t *testing.T) {
	c := Cell{Seconds: 100, Aborted: true}
	if got := c.String(); !strings.Contains(got, "aborted") {
		t.Errorf("cell = %q", got)
	}
}

// TestProfileAttribution: a traced run attributes all simulated time to
// statements and ranks the hot ones first.
func TestProfileAttribution(t *testing.T) {
	src := programs.TOMCATV(17, 2)
	c, err := Compile(src, 4, SelectedOptions())
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Execute(context.Background(), Simulator(), RunOptions{Trace: &TraceOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.HotStatements) == 0 {
		t.Fatal("empty profile")
	}
	for i := 1; i < len(out.HotStatements); i++ {
		if out.HotStatements[i].Seconds > out.HotStatements[i-1].Seconds {
			t.Fatal("profile not sorted by descending seconds")
		}
	}
	var total float64
	for _, p := range out.HotStatements {
		total += p.Seconds
		if p.Instances <= 0 {
			t.Errorf("statement s%d profiled with %d instances", p.Stmt.ID, p.Instances)
		}
	}
	if total <= 0 {
		t.Error("no time attributed")
	}
	// Attributing must not change the result.
	plain, err := c.Execute(context.Background(), Simulator(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Time != out.Time {
		t.Errorf("attributing changed simulated time: %v vs %v", out.Time, plain.Time)
	}
	s := FormatHotStatements(out.HotStatements, 5)
	if !strings.Contains(s, "assign") {
		t.Errorf("formatted profile:\n%s", s)
	}
}
