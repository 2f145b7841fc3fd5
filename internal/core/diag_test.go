package core

import (
	"strings"
	"testing"

	"phpf/internal/parser"
)

// compileDiag parses and analyzes, failing the test on hard errors.
func compileDiag(t *testing.T, src string, nprocs int) *Result {
	t.Helper()
	ap, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := BuildAndAnalyze(ap, nprocs, DefaultOptions())
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return res
}

// TestBadDirectiveDegradesToReplication: a distribute of an undeclared array
// no longer fails the compilation; it is skipped with a positioned
// diagnostic, and the run proceeds with the remaining (valid) mappings.
func TestBadDirectiveDegradesToReplication(t *testing.T) {
	src := `
program t
parameter n = 16
real a(n)
integer i
!hpf$ distribute (block) :: nosuch
!hpf$ distribute (block) :: a
do i = 1, n
  a(i) = 1.0
end do
end
`
	res := compileDiag(t, src, 4)
	if len(res.Diags) == 0 {
		t.Fatal("skipped directive produced no diagnostic")
	}
	d := res.Diags[0]
	if d.Stage != "mapping" || d.Pos.Line != 6 {
		t.Errorf("diagnostic = %+v, want mapping stage at line 6", d)
	}
	if !strings.Contains(d.String(), "nosuch") {
		t.Errorf("diagnostic %q does not name the offending array", d.String())
	}
	// The valid directive still took effect.
	for v, am := range res.Mapping.Arrays {
		if v.Name == "a" && am.FullyReplicated() {
			t.Error("valid distribute of a was lost")
		}
	}
}

// TestRankMismatchDirectiveSkipped: a format-count/rank mismatch is skipped
// and the array defaults to replication instead of aborting.
func TestRankMismatchDirectiveSkipped(t *testing.T) {
	src := `
program t
parameter n = 16
real a(n, n)
integer i
!hpf$ distribute (block) :: a
do i = 1, n
  a(i, 1) = 1.0
end do
end
`
	res := compileDiag(t, src, 4)
	if len(res.Diags) == 0 {
		t.Fatal("rank-mismatched distribute produced no diagnostic")
	}
	for v, am := range res.Mapping.Arrays {
		if v.Name == "a" && !am.FullyReplicated() {
			t.Error("array with skipped directive should fall back to replication")
		}
	}
}

// TestMultipleProblemsAggregated: all problems are reported, not just the
// first, each with its own source line.
func TestMultipleProblemsAggregated(t *testing.T) {
	src := `
program t
parameter n = 16
real a(n)
integer i
!hpf$ distribute (block) :: nosuch
!hpf$ align q(i) with a(i)
!hpf$ distribute (block) :: a
do i = 1, n
  a(i) = 1.0
end do
end
`
	res := compileDiag(t, src, 4)
	if len(res.Diags) < 2 {
		t.Fatalf("want >= 2 diagnostics, got %d: %v", len(res.Diags), res.Diags)
	}
	lines := map[int]bool{}
	for _, d := range res.Diags {
		lines[d.Pos.Line] = true
	}
	if !lines[6] || !lines[7] {
		t.Errorf("diagnostics missing source lines 6 and 7: %v", res.Diags)
	}
}

// TestCleanProgramHasNoDiags: valid programs pay nothing — no diagnostics.
func TestCleanProgramHasNoDiags(t *testing.T) {
	src := `
program t
parameter n = 16
real a(n)
integer i
!hpf$ distribute (block) :: a
do i = 1, n
  a(i) = 1.0
end do
end
`
	res := compileDiag(t, src, 4)
	if len(res.Diags) != 0 {
		t.Errorf("clean program produced diagnostics: %v", res.Diags)
	}
}

// TestAlignmentFallbackNamesStrategy: when no loop level admits the chosen
// target (x's target is indexed through idx, so it is valid in no loop), both
// privatizing strategies fall back to replication through the one align
// step, and the diagnostic keeps each strategy's wording: the producer
// strategy names its candidate a producer.
func TestAlignmentFallbackNamesStrategy(t *testing.T) {
	src := `
program t
parameter n = 8
real a(n), x
integer idx(n)
integer i
!hpf$ distribute (block) :: a
do i = 1, n
  a(i) = i
  idx(i) = i
end do
do i = 1, n
  x = a(idx(i))
end do
end
`
	for strategy, want := range map[ScalarStrategy]string{
		ScalarsProducerAligned: "13:3: warning: scalar-mapping: x: no loop level admits alignment with producer a(idx(i)); falling back to replication [W102]",
		ScalarsSelected:        "13:3: warning: scalar-mapping: x: no loop level admits alignment with a(idx(i)); falling back to replication [W102]",
	} {
		ap, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Scalars = strategy
		res, err := BuildAndAnalyze(ap, 4, opts)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, d := range res.Diags {
			got = append(got, d.String())
		}
		if len(got) != 1 || got[0] != want {
			t.Errorf("%s: diagnostics %q, want [%q]", strategy, got, want)
		}
		for _, m := range res.Scalars {
			if m.Def.Var.Name == "x" && m.Kind != ScalarReplicated {
				t.Errorf("%s: x is %s, want replicated after the fallback", strategy, m.Kind)
			}
		}
	}
}
