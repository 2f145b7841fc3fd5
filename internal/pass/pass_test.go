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
// rewrites it to closed form and invalidates the SSA facts.
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

// stdPasses is the pass-package half of the core pipeline (everything but
// the analyze pass, which lives in core).
func stdPasses() []*Pass {
	return []*Pass{IRBuild(), CFGBuild(), SSABuild(), ConstProp(), Induction(), Mapping()}
}

// needsAll stands in for core's analyze pass: it requires every fact, so
// anything the induction rewrite invalidated is rebuilt before it runs.
func needsAll() *Pass {
	return &Pass{
		Name:     "needs-all",
		Requires: []Fact{FactIR, FactSSA, FactConsts, FactMapping},
		Run:      func(u *Unit) error { return nil },
	}
}

func runPipeline(t *testing.T, src string, extra ...*Pass) (*Unit, *Manager) {
	t.Helper()
	mgr, err := NewManager(append(stdPasses(), extra...)...)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	mgr.Verify = true
	u := &Unit{Source: parse(t, src), NProcs: 4}
	if err := mgr.Run(u); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	return u, mgr
}

func TestPipelineEstablishesAllFacts(t *testing.T) {
	u, mgr := runPipeline(t, simpleSrc)
	for _, f := range []Fact{FactIR, FactCFG, FactSSA, FactConsts, FactMapping} {
		if !u.Valid(f) {
			t.Errorf("fact %s not valid after pipeline", f)
		}
	}
	prof := mgr.Profile()
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

// TestInductionInvalidatesLazily: the induction rewrite invalidates the
// CFG-derived facts, and a later pass requiring SSA triggers exactly one
// lazy rebuild, visible in the profile.
func TestInductionInvalidatesLazily(t *testing.T) {
	needsSSA := &Pass{
		Name:     "needs-ssa",
		Requires: []Fact{FactSSA, FactConsts},
		Run:      func(u *Unit) error { return nil },
	}
	u, mgr := runPipeline(t, inductionSrc, needsSSA)
	if len(u.Inductions) == 0 {
		t.Fatal("no induction variables recognized; test program is broken")
	}
	prof := mgr.Profile()
	for _, name := range []string{"cfg", "ssa", "constprop"} {
		if got := prof.Runs(name); got != 2 {
			t.Errorf("%s ran %d times, want exactly 2 (initial + one lazy rebuild)", name, got)
		}
	}
	if got := prof.Runs("ir"); got != 1 {
		t.Errorf("ir ran %d times, want 1", got)
	}
	reruns := 0
	for _, s := range prof.Stats {
		if s.Rerun {
			reruns++
		}
	}
	if reruns != 3 {
		t.Errorf("%d executions marked rerun, want 3 (cfg, ssa, constprop)", reruns)
	}
}

// TestNoRewriteNoRebuild: without induction variables nothing is
// invalidated and every pass runs exactly once.
func TestNoRewriteNoRebuild(t *testing.T) {
	needsSSA := &Pass{
		Name:     "needs-ssa",
		Requires: []Fact{FactSSA, FactConsts},
		Run:      func(u *Unit) error { return nil },
	}
	_, mgr := runPipeline(t, simpleSrc, needsSSA)
	for _, name := range []string{"ir", "cfg", "ssa", "constprop", "induction", "mapping"} {
		if got := mgr.Profile().Runs(name); got != 1 {
			t.Errorf("%s ran %d times, want 1", name, got)
		}
	}
}

func TestUndeclaredInvalidationFails(t *testing.T) {
	rogue := &Pass{
		Name:     "rogue",
		Requires: []Fact{FactSSA},
		Run: func(u *Unit) error {
			u.Invalidate(FactIR) // not declared in MayDrop
			return nil
		},
	}
	mgr, err := NewManager(append(stdPasses(), rogue)...)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	u := &Unit{Source: parse(t, simpleSrc), NProcs: 4}
	err = mgr.Run(u)
	if err == nil || !strings.Contains(err.Error(), "rogue") ||
		!strings.Contains(err.Error(), "undeclared") {
		t.Fatalf("undeclared invalidation not rejected: %v", err)
	}
}

func TestDuplicateProviderRejected(t *testing.T) {
	if _, err := NewManager(IRBuild(), IRBuild()); err == nil {
		t.Fatal("duplicate pass accepted")
	}
	other := &Pass{Name: "ir2", Provides: []Fact{FactIR},
		Run: func(u *Unit) error { return nil }}
	if _, err := NewManager(IRBuild(), other); err == nil {
		t.Fatal("two providers for one fact accepted")
	}
}

func TestMissingProviderFails(t *testing.T) {
	needsSSA := &Pass{Name: "needs-ssa", Requires: []Fact{FactSSA},
		Run: func(u *Unit) error { return nil }}
	mgr, err := NewManager(IRBuild(), needsSSA)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	u := &Unit{Source: parse(t, simpleSrc), NProcs: 4}
	if err := mgr.Run(u); err == nil || !strings.Contains(err.Error(), "no pass") {
		t.Fatalf("missing provider not reported: %v", err)
	}
}

// TestVerifierCatchesDanglingPhi: hand-corrupt the SSA by truncating a phi's
// argument list; the inter-pass verifier must fail the pipeline with an
// error naming the corrupting pass.
func TestVerifierCatchesDanglingPhi(t *testing.T) {
	corrupt := &Pass{
		Name:     "corrupt-phi",
		Requires: []Fact{FactSSA},
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
	mgr, err := NewManager(append(stdPasses(), corrupt)...)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	mgr.Verify = true
	u := &Unit{Source: parse(t, simpleSrc), NProcs: 4}
	err = mgr.Run(u)
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
	corrupt := &Pass{
		Name:     "corrupt-mapping",
		Requires: []Fact{FactMapping},
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
	mgr, err := NewManager(append(stdPasses(), corrupt)...)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	mgr.Verify = true
	u := &Unit{Source: parse(t, simpleSrc), NProcs: 4}
	err = mgr.Run(u)
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
	corrupt := &Pass{
		Name:     "corrupt-cfg",
		Requires: []Fact{FactCFG},
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
	mgr, err := NewManager(IRBuild(), CFGBuild(), corrupt)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	mgr.Verify = true
	u := &Unit{Source: parse(t, simpleSrc), NProcs: 4}
	err = mgr.Run(u)
	if err == nil {
		t.Fatal("verifier accepted an asymmetric CFG edge")
	}
	if !strings.Contains(err.Error(), "corrupt-cfg") {
		t.Errorf("error does not name the offending pass: %v", err)
	}
}

func TestVerifyCleanUnit(t *testing.T) {
	u, _ := runPipeline(t, inductionSrc, needsAll())
	if errs := VerifyUnit(u); len(errs) > 0 {
		t.Fatalf("clean unit fails verification: %v", errs[0])
	}
}

// TestDumpDeterministic: two independent compilations of the same program
// produce byte-identical snapshots.
func TestDumpDeterministic(t *testing.T) {
	for _, src := range []string{simpleSrc, inductionSrc} {
		u1, _ := runPipeline(t, src, needsAll())
		u2, _ := runPipeline(t, src, needsAll())
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
	mgr, err := NewManager(stdPasses()...)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	mgr.DumpAfter = "ssa"
	u := &Unit{Source: parse(t, simpleSrc), NProcs: 4}
	if err := mgr.Run(u); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	snap, ok := mgr.Profile().Dumps["ssa"]
	if !ok {
		t.Fatal("no snapshot captured for -dump-after=ssa")
	}
	if !strings.Contains(snap, "== ssa ==") || strings.Contains(snap, "== mapping ==") {
		t.Errorf("ssa snapshot has wrong sections:\n%s", snap)
	}
}

func TestProfileString(t *testing.T) {
	_, mgr := runPipeline(t, inductionSrc, needsAll())
	s := mgr.Profile().String()
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
	probe := func(name string) *Pass {
		return &Pass{
			Name:     name,
			Requires: []Fact{FactIR, FactSSA},
			Run:      func(u *Unit) error { u.Reductions(); return nil },
		}
	}
	for _, tc := range []struct {
		name, src string
		want      int
	}{
		{"no rewrite", strings.Replace(simpleSrc, "x = b(i)\n  a(i) = x", "x = x + b(i)", 1), 1},
		{"induction rewrite", inductionSrc, 2},
	} {
		mgr, err := NewManager(IRBuild(), CFGBuild(), SSABuild(), ConstProp(), probe("early"),
			Induction(), AutoPriv(true, false), ReducePlan(), Mapping(), probe("analyze-stand-in"))
		if err != nil {
			t.Fatal(err)
		}
		mgr.Verify = true
		u := &Unit{Source: parse(t, tc.src), NProcs: 4}
		if err := mgr.Run(u); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if u.recognized != tc.want {
			t.Errorf("%s: reductions recognized %d times, want %d", tc.name, u.recognized, tc.want)
		}
		if got := mgr.Profile().Runs("ssa"); got != tc.want {
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
