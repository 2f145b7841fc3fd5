package phpf

import (
	"context"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"phpf/internal/dist"
	"phpf/internal/ir"
	"phpf/internal/programs"
	"phpf/internal/spmd"
)

// decisionCorpus is the thirteen corpus programs — the six paper figures and
// the seven kernels at the differential oracles' test sizes — in name order.
func decisionCorpus() []struct{ name, src string } {
	corpus := []struct{ name, src string }{
		{"appsp1d", programs.APPSP(4, 4, 4, 1, false)},
		{"appsp2d", programs.APPSP(4, 4, 4, 1, true)},
		{"dgefa", programs.DGEFA(12)},
		{"dotsweep", programs.DotSweep(16, 12)},
		{"histogram", programs.Histogram(96, 16, 2)},
		{"smooth", programs.Smooth(24, 2)},
		{"tomcatv", programs.TOMCATV(10, 2)},
	}
	for _, name := range FigureNames() {
		src, _ := FigureSource(name)
		corpus = append(corpus, struct{ name, src string }{name, src})
	}
	sort.Slice(corpus, func(i, j int) bool { return corpus[i].name < corpus[j].name })
	return corpus
}

// eachDecisionCell compiles every cell of testdata/decisions.golden — corpus
// × strategy × {default, no dependence test, no vectorization} ×
// privatization mode × P — in the golden's order, and hands each to f.
func eachDecisionCell(t *testing.T, f func(cell string, c *Compiled)) {
	t.Helper()
	variants := []struct {
		name string
		set  func(*Options)
	}{
		{"default", func(*Options) {}},
		{"nodeptest", func(o *Options) { o.DisableDependenceTest = true }},
		{"novector", func(o *Options) { o.DisableVectorization = true }},
	}
	for _, prog := range decisionCorpus() {
		for _, strat := range Strategies() {
			for _, v := range variants {
				for _, priv := range []PrivMode{PrivDirectives, PrivInfer, PrivInferStrict} {
					for _, nprocs := range []int{4, 8} {
						opts := strat.Opts
						v.set(&opts)
						opts.Privatization = priv
						cell := fmt.Sprintf("%s/%s/%s/%s/p%d", prog.name, strat.Name, v.name, priv, nprocs)
						c, err := Compile(prog.src, nprocs, opts)
						if err != nil {
							t.Fatalf("%s: %v", cell, err)
						}
						f(cell, c)
					}
				}
			}
		}
	}
}

// TestGoldenDecisions pins what the compile half decides, cell by cell: a
// hash of the four decision reports, the decision record's JSON (the
// selector's why-fields: selected consumer, forced replication, role, align
// level) and every diagnostic's text, the requirement, statement-plan and
// diagnostic counts, and what the simulator then charges (or the error of a
// figure that is an analysis example and does not execute). A change to the
// selector, the planner or the generator that is meant to keep behaviour
// must leave testdata/decisions.golden byte for byte as it is; one that
// moves a line names the cell it moved.
func TestGoldenDecisions(t *testing.T) {
	var b strings.Builder
	eachDecisionCell(t, func(cell string, c *Compiled) {
		reports := c.MappingReport() + c.CommReport() + c.DumpSPMD() + c.ExplainPriv() + string(c.Decisions().JSON())
		for _, d := range c.Diags() {
			reports += d.String() + "\n"
		}
		fmt.Fprintf(&b, "%s sha=%x reqs=%d plans=%d diags=%d ", cell, sha256.Sum256([]byte(reports)),
			len(c.SPMD.Plan.Reqs), len(c.SPMD.Stmts), len(c.Diags()))
		rep, err := c.Execute(context.Background(), Simulator(), RunOptions{})
		if err != nil {
			fmt.Fprintf(&b, "error=%q\n", err)
			return
		}
		fmt.Fprintf(&b, "time=%.17g msgs=%d bytes=%d\n", rep.Time, rep.Stats.Messages, rep.Stats.BytesMoved)
	})
	checkGolden(t, filepath.Join("testdata", "decisions.golden"), b.String())
}

// TestPlanMatchesGuard: the plan must be a plan for the guard that runs. For
// every statement of every corpus program under every strategy, the
// destination pattern the planner classified the statement's references
// against equals the pattern of the guard the generator emitted for it
// (positions compared structurally: dist.Covers calls two equal non-affine
// positions different), and so does the destination every requirement
// carries. A union guard has no pattern of its own to compare.
func TestPlanMatchesGuard(t *testing.T) {
	for _, prog := range decisionCorpus() {
		for _, strat := range Strategies() {
			c, err := Compile(prog.src, 4, strat.Opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", prog.name, strat.Name, err)
			}
			res := c.Result
			check := func(st *ir.Stmt, what string, planned dist.OwnerPattern) {
				var guard dist.OwnerPattern
				switch sp := c.SPMD.PlanOf(st); sp.Kind {
				case spmd.ExecAll:
					guard = dist.ReplicatedPattern(res.Mapping.Grid)
				case spmd.ExecOwner:
					guard = res.RefPattern(sp.OwnerRef)
				case spmd.ExecPattern:
					guard = sp.Scalar.Pattern
				default:
					return
				}
				if !reflect.DeepEqual(planned.Dims, guard.Dims) {
					t.Errorf("%s/%s s%d (line %d) %s: planned for %s, guard runs on %s",
						prog.name, strat.Name, st.ID, st.Line, what, planned, guard)
				}
			}
			for _, st := range res.Prog.Stmts {
				check(st, "statement", res.ExecPattern(st))
			}
			for _, r := range c.SPMD.Plan.Reqs {
				check(r.Stmt, "requirement "+r.String(), r.DstPat)
			}
		}
	}
}

// TestSelectorBelievesPlanner: the §2.1 x-versus-y decision is taken with the
// planner's own hoisting test. The use a(key(i), j-1) has a non-affine
// subscript in a *collapsed* dimension, which the planner never looks at: it
// hoists the shift out of both loops, so the selector must not call the use
// inner-loop communication and fall back to producer alignment (which leaves
// one message per instance of the second statement).
func TestSelectorBelievesPlanner(t *testing.T) {
	src := `
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
    x = a(key(i), j-1)
    b(i,j) = x
  end do
end do
end
`
	c, err := Compile(src, 4, SelectedOptions())
	if err != nil {
		t.Fatal(err)
	}
	if mr := c.MappingReport(); !strings.Contains(mr, "aligned with b(i,j) (consumer)") {
		t.Errorf("x is not consumer-aligned:\n%s", mr)
	}
	reqs := c.SPMD.Plan.Reqs
	if len(reqs) != 1 || reqs[0].Class != dist.CommShift || len(reqs[0].Hoisted) != 2 || reqs[0].Placement != nil {
		t.Errorf("plan is not one shift hoisted out of both loops to top level:\n%s", c.CommReport())
	}
	for _, sp := range c.SPMD.Stmts {
		if len(sp.PerInstance) > 0 {
			t.Errorf("s%d carries a per-instance requirement: %s", sp.Stmt.ID, sp.PerInstance[0])
		}
	}
}
