package core

import (
	"strings"
	"testing"

	"phpf/internal/parser"
)

func analyzeSrc(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	ap, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := BuildAndAnalyze(ap, 4, opts)
	if err != nil {
		t.Fatalf("BuildAndAnalyze: %v", err)
	}
	return res
}

// inductionSrc increments k by hand each iteration, so the induction pass
// rewrites it to closed form.
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

// TestInductionRebuildExactlyOnce is the regression test for the silent
// double-rebuild: after induction rewriting, cfg/ssa/constprop must be
// rebuilt exactly once, and the rebuild must be visible in the profile.
func TestInductionRebuildExactlyOnce(t *testing.T) {
	res := analyzeSrc(t, inductionSrc, DefaultOptions())
	if len(res.Inductions) == 0 {
		t.Fatal("no induction variable recognized; test program is broken")
	}
	if res.Profile == nil {
		t.Fatal("no compile profile on the result")
	}
	for _, name := range []string{"cfg", "ssa", "constprop"} {
		if got := res.Profile.Runs(name); got != 2 {
			t.Errorf("%s ran %d times, want exactly 2 (initial + one post-rewrite rebuild)",
				name, got)
		}
	}
	for _, name := range []string{"ir", "induction", "mapping", "analyze"} {
		if got := res.Profile.Runs(name); got != 1 {
			t.Errorf("%s ran %d times, want 1", name, got)
		}
	}
	// The analysis must be built over the rebuilt SSA, not a stale one.
	if res.SSA.Prog != res.Prog {
		t.Error("result SSA not over the result program")
	}
}

// TestNoInductionNoRebuild: without induction rewrites every pass runs once.
func TestNoInductionNoRebuild(t *testing.T) {
	src := `
program t
parameter n = 16
real a(n)
real x
integer i
!hpf$ distribute (block) :: a
do i = 1, n
  x = a(i)
  a(i) = x + 1.0
end do
end
`
	res := analyzeSrc(t, src, DefaultOptions())
	for _, name := range []string{"ir", "cfg", "ssa", "constprop", "induction", "mapping", "analyze"} {
		if got := res.Profile.Runs(name); got != 1 {
			t.Errorf("%s ran %d times, want 1", name, got)
		}
	}
}

// TestDumpAfterOption: Options.DumpAfter captures the snapshot in the
// profile, and two compilations agree byte for byte.
func TestDumpAfterOption(t *testing.T) {
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
	opts := DefaultOptions()
	opts.DumpAfter = "ssa"
	r1 := analyzeSrc(t, src, opts)
	r2 := analyzeSrc(t, src, opts)
	d1, ok := r1.Profile.Dumps["ssa"]
	if !ok {
		t.Fatal("DumpAfter=ssa captured no snapshot")
	}
	if !strings.Contains(d1, "== ssa ==") {
		t.Errorf("snapshot missing ssa section:\n%s", d1)
	}
	if d2 := r2.Profile.Dumps["ssa"]; d1 != d2 {
		t.Errorf("snapshot not byte-stable across runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", d1, d2)
	}
}

// TestDumpAfterRewrite pins what -dump-after prints on a program the induction
// pass rewrites: directly after the rewrite the IR alone (the CFG, the SSA and
// the constants were built over the old expressions and are being rebuilt —
// nothing stale is shown), and after mapping all seven sections, over the
// rewritten program.
func TestDumpAfterRewrite(t *testing.T) {
	const ir = `== ir ==
program t
var a(16)
var i loop-index
var k
s0 7:1 assign k = 0
s1 9:3 assign k = i in i-loop
s2 10:3 assign a(i) = 1 in i-loop
`
	for after, want := range map[string]string{
		"induction": ir,
		"mapping": ir + `== cfg ==
B0 (entry): s0 -> B1
B1 (header of i-loop): -> B2 B3
B2: s1 s2 -> B1
B3: -> B4
B4 (exit): ->
== ssa ==
v0 k.2=phi@B1 <- v2 v3
v1 k.init
v2 k.1@s0
v3 k.3@s1
== consts ==
v2 k.1@s0 = 0
== autopriv ==
k wrt i-loop: private — every use is reached only by same-iteration definitions
== reduceplan ==
== mapping ==
grid(4)
a(block@g0)
`,
	} {
		opts := DefaultOptions()
		opts.DumpAfter = after
		if got := analyzeSrc(t, inductionSrc, opts).Profile.Dumps[after]; got != want {
			t.Errorf("-dump-after=%s prints\n%s\nwant\n%s", after, got, want)
		}
	}
}
