package pass

import (
	"strings"
	"testing"

	"phpf/internal/ast"
	"phpf/internal/parser"
	"phpf/internal/ssa"
)

const simpleSrc = `
program t
parameter n = 16
real a(n), b(n)
real x
integer i
!hpf$ distribute (block) :: a, b
do i = 1, n
  x = b(i)
  a(i) = x
end do
end
`

// inductionSrc increments k by hand each iteration, so the induction pass
// rewrites it to closed form and drops the CFG, the SSA and the constants.
const inductionSrc = `
program t
parameter n = 16
real a(n)
integer i, k
!hpf$ distribute (block) :: a
k = 0
do i = 1, n
  k = k + 1
  a(k) = 1.0
end do
end
`

func parse(t *testing.T, src string) *ast.Program {
	t.Helper()
	ap, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return ap
}

// stdSteps is the pass-package part of the list core.Pipeline declares, up to
// induction, and the mapping step (analyze lives in core).
func stdSteps() []Step {
	return []Step{{"ir", BuildIR}, {"cfg", BuildCFG}, {"ssa", BuildSSA}, {"constprop", ConstProp},
		{"induction", Induction}, {"mapping", Mapping}}
}

func runPipeline(t *testing.T, src string) (*Unit, *CompileProfile) {
	t.Helper()
	u := &Unit{Source: parse(t, src), NProcs: 4}
	prof, err := Run(u, stdSteps(), true, "")
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	return u, prof
}

func TestPipelineEstablishesAllFacts(t *testing.T) {
	u, prof := runPipeline(t, simpleSrc)
	if u.Prog == nil || u.CFG == nil || u.SSA == nil || u.Consts == nil || u.Mapping == nil {
		t.Errorf("a structure is missing after the pipeline: %+v", u)
	}
	wantOrder := []string{"ir", "cfg", "ssa", "constprop", "induction", "mapping"}
	if len(prof.Stats) != len(wantOrder) {
		t.Fatalf("got %d pass executions, want %d: %+v", len(prof.Stats), len(wantOrder), prof.Stats)
	}
	for i, w := range wantOrder {
		if prof.Stats[i].Name != w {
			t.Errorf("execution %d = %s, want %s", i, prof.Stats[i].Name, w)
		}
		if prof.Stats[i].Rerun {
			t.Errorf("execution %d (%s) marked as rerun on a straight-line pipeline", i, w)
		}
	}
}

// TestInductionInvalidatesLazily (the name predates the list): the induction
// rewrite drops the CFG, the SSA and the constants, and exactly one rebuild
// of each follows it directly, marked as a re-run in the profile — whether or
// not a later step reads them.
func TestInductionInvalidatesLazily(t *testing.T) {
	u, prof := runPipeline(t, inductionSrc)
	if len(u.Inductions) == 0 {
		t.Fatal("no induction variables recognized; test program is broken")
	}
	var got []string
	for _, s := range prof.Stats {
		name := s.Name
		if s.Rerun {
			name += "*"
		}
		got = append(got, name)
	}
	if want := "ir cfg ssa constprop induction cfg* ssa* constprop* mapping"; strings.Join(got, " ") != want {
		t.Errorf("executions %v, want %s", got, want)
	}
	if u.CFG == nil || u.SSA == nil || u.SSA.CFG != u.CFG || u.Consts == nil {
		t.Error("the structures the rewrite dropped were not rebuilt over one another")
	}
}

// TestNoRewriteNoRebuild: without induction variables nothing is dropped and
// every pass runs exactly once.
func TestNoRewriteNoRebuild(t *testing.T) {
	_, prof := runPipeline(t, simpleSrc)
	for _, name := range []string{"ir", "cfg", "ssa", "constprop", "induction", "mapping"} {
		if got := prof.Runs(name); got != 1 {
			t.Errorf("%s ran %d times, want 1", name, got)
		}
	}
}

// TestVerifierCatchesDanglingPhi: hand-corrupt the SSA by truncating a phi's
// argument list; the inter-pass verifier must fail the pipeline with an
// error naming the corrupting pass.
func TestVerifierCatchesDanglingPhi(t *testing.T) {
	corrupt := Step{
		Name: "corrupt-phi",
		Run: func(u *Unit) error {
			for _, v := range u.SSA.Values {
				if v.Kind == ssa.VPhi && len(v.Args) > 0 {
					v.Args = v.Args[:len(v.Args)-1]
					return nil
				}
			}
			t.Fatal("no phi to corrupt; test program is broken")
			return nil
		},
	}
	u := &Unit{Source: parse(t, simpleSrc), NProcs: 4}
	_, err := Run(u, append(stdSteps(), corrupt), true, "")
	if err == nil {
		t.Fatal("verifier accepted a phi with wrong arity")
	}
	if !strings.Contains(err.Error(), "corrupt-phi") {
		t.Errorf("error does not name the offending pass: %v", err)
	}
	if !strings.Contains(err.Error(), "phi") {
		t.Errorf("error does not describe the phi violation: %v", err)
	}
}

// TestVerifierCatchesUnmappedGridDim: hand-corrupt the mapping by pointing a
// distributed axis at a grid dimension that does not exist.
func TestVerifierCatchesUnmappedGridDim(t *testing.T) {
	corrupt := Step{
		Name: "corrupt-mapping",
		Run: func(u *Unit) error {
			for _, am := range u.Mapping.Arrays {
				for i := range am.Axes {
					if am.Axes[i].Distributed {
						am.Axes[i].GridDim = 97
						return nil
					}
				}
			}
			t.Fatal("no distributed axis to corrupt; test program is broken")
			return nil
		},
	}
	u := &Unit{Source: parse(t, simpleSrc), NProcs: 4}
	_, err := Run(u, append(stdSteps(), corrupt), true, "")
	if err == nil {
		t.Fatal("verifier accepted a distributed axis onto a nonexistent grid dim")
	}
	if !strings.Contains(err.Error(), "corrupt-mapping") {
		t.Errorf("error does not name the offending pass: %v", err)
	}
	if !strings.Contains(err.Error(), "grid dim") {
		t.Errorf("error does not describe the mapping violation: %v", err)
	}
}

// TestVerifierCatchesDominanceViolation: move a definition's statement after
// its use within the block ordering by swapping block contents.
func TestVerifierCatchesBrokenEdge(t *testing.T) {
	corrupt := Step{
		Name: "corrupt-cfg",
		Run: func(u *Unit) error {
			for _, b := range u.CFG.Blocks {
				if len(b.Succs) > 0 {
					b.Succs[0] = u.CFG.Blocks[len(u.CFG.Blocks)-1]
					return nil
				}
			}
			return nil
		},
	}
	// Only ir/cfg before the corruption: SSA would be rebuilt over the
	// broken graph otherwise.
	u := &Unit{Source: parse(t, simpleSrc), NProcs: 4}
	_, err := Run(u, append(stdSteps()[:2], corrupt), true, "")
	if err == nil {
		t.Fatal("verifier accepted an asymmetric CFG edge")
	}
	if !strings.Contains(err.Error(), "corrupt-cfg") {
		t.Errorf("error does not name the offending pass: %v", err)
	}
}

func TestVerifyCleanUnit(t *testing.T) {
	u, _ := runPipeline(t, inductionSrc)
	if errs := VerifyUnit(u); len(errs) > 0 {
		t.Fatalf("clean unit fails verification: %v", errs[0])
	}
}

// TestDumpDeterministic: two independent compilations of the same program
// produce byte-identical snapshots.
func TestDumpDeterministic(t *testing.T) {
	for _, src := range []string{simpleSrc, inductionSrc} {
		u1, _ := runPipeline(t, src)
		u2, _ := runPipeline(t, src)
		d1, d2 := DumpUnit(u1), DumpUnit(u2)
		if d1 != d2 {
			t.Errorf("dump not deterministic:\n--- run 1 ---\n%s--- run 2 ---\n%s", d1, d2)
		}
		for _, section := range []string{"== ir ==", "== cfg ==", "== ssa ==", "== consts ==", "== mapping =="} {
			if !strings.Contains(d1, section) {
				t.Errorf("dump missing section %s", section)
			}
		}
	}
}

func TestDumpAfterCapturesSnapshot(t *testing.T) {
	u := &Unit{Source: parse(t, simpleSrc), NProcs: 4}
	prof, err := Run(u, stdSteps(), false, "ssa")
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	snap, ok := prof.Dumps["ssa"]
	if !ok {
		t.Fatal("no snapshot captured for -dump-after=ssa")
	}
	if !strings.Contains(snap, "== ssa ==") || strings.Contains(snap, "== mapping ==") {
		t.Errorf("ssa snapshot has wrong sections:\n%s", snap)
	}
}

func TestProfileString(t *testing.T) {
	_, prof := runPipeline(t, inductionSrc)
	s := prof.String()
	for _, w := range []string{"pass", "wall", "diags", "ir", "ssa*", "total"} {
		if !strings.Contains(s, w) {
			t.Errorf("profile table missing %q:\n%s", w, s)
		}
	}
}

// TestReductionsRecognizedOncePerSSA: the unit memoizes the recognized
// reductions by the SSA they were computed from. A compile without induction
// rewrites recognizes once, however many passes ask (here a probe ahead of
// the induction pass, the autopriv classification, the reduceplan pass and a
// stand-in for analyze); an induction rewrite rebuilds the SSA, and the first
// pass to ask afterwards recognizes again — once.
func TestReductionsRecognizedOncePerSSA(t *testing.T) {
	probe := func(name string) Step {
		return Step{Name: name, Run: func(u *Unit) error { u.Reductions(); return nil }}
	}
	for _, tc := range []struct {
		name, src string
		want      int
	}{
		{"no rewrite", strings.Replace(simpleSrc, "x = b(i)\n  a(i) = x", "x = x + b(i)", 1), 1},
		{"induction rewrite", inductionSrc, 2},
	} {
		steps := []Step{{"ir", BuildIR}, {"cfg", BuildCFG}, {"ssa", BuildSSA}, {"constprop", ConstProp}, probe("early"),
			{"induction", Induction}, {"autopriv", func(u *Unit) error { return AutoPriv(u, true, false) }},
			{"reduceplan", ReducePlan}, {"mapping", Mapping}, probe("analyze-stand-in")}
		u := &Unit{Source: parse(t, tc.src), NProcs: 4}
		prof, err := Run(u, steps, true, "")
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if u.recognized != tc.want {
			t.Errorf("%s: reductions recognized %d times, want %d", tc.name, u.recognized, tc.want)
		}
		if got := prof.Runs("ssa"); got != tc.want {
			t.Errorf("%s: ssa built %d times, want %d (the test program is broken)", tc.name, got, tc.want)
		}
		if tc.want == 1 && len(u.ReducePlan.Decisions) != 1 {
			t.Errorf("%s: %d reductions classified, want 1 (the test program is broken)", tc.name, len(u.ReducePlan.Decisions))
		}
		for i, d := range u.ReducePlan.Decisions {
			if d.Red != u.Reductions()[i] {
				t.Errorf("%s: reduceplan decision %d is about another recognition", tc.name, i)
			}
		}
	}
}
