package phpf

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"phpf/internal/diag"
)

// meaningProgram is one program on which the compile-time reading of an
// expression once disagreed with the run (DESIGN.md §14).
type meaningProgram struct {
	name string
	src  string
	// twin, when set, spells the same computation without the expression in
	// question; it must leave the same memory (scalars, arrays below).
	twin string
	// wantErr, when set, is what Compile's positioned diagnostic must name.
	wantErr string
	// dump names a pass whose snapshot must contain wantDump.
	dump, wantDump string
	scalars        map[string]float64
	arrays         map[string][]float64
}

func inductionOn(init string) string {
	return fmt.Sprintf(`
program inductioninit
real d(16)
integer i, m
!hpf$ distribute (block) :: d
m = %s
do i = 1, 8
  m = m + 1
  d(m) = 1.0
end do
end
`, init)
}

func halfExtent(n int) string {
	return fmt.Sprintf(`
program halfextent
parameter n = %d
real a(n/2)
integer i
!hpf$ distribute (block) :: a
do i = 1, n/2
  a(i) = 1.0
end do
end
`, n)
}

func maxBound(decl, bound string) string {
	return fmt.Sprintf(`
program maxbound
parameter n = 4
real a(8)
integer i, k
!hpf$ distribute (block) :: a
%s
do i = 1, max(%s, 2)
  a(i) = 1.0
end do
end
`, decl, bound)
}

func boundedBy(hi string) string {
	return fmt.Sprintf(`
program fracbound
real a(8), b(8)
real x
integer i, k
!hpf$ distribute (block) :: a, b
do i = 1, %s
  x = i
  a(i) = 1.0
end do
do k = 1, 8
  b(k) = x
end do
end
`, hi)
}

func ones(lo, hi, n int) []float64 {
	out := make([]float64, n)
	for i := lo; i <= hi; i++ {
		out[i-1] = 1
	}
	return out
}

var meaningPrograms = []meaningProgram{
	{
		// The machine stores round(3.5) = 4 into m; the induction's closed
		// form was built on a truncated 3.
		name: "induction init", src: inductionOn("7/2"), twin: inductionOn("4"),
		scalars: map[string]float64{"m": 12},
		arrays:  map[string][]float64{"d": ones(5, 12, 16)},
	},
	{
		// One expression, 3 at the declaration and 4 at the loop bound.
		name: "odd half extent", src: halfExtent(7), wantErr: "array a: extent (n / 2)",
	},
	{
		name: "even half extent", src: halfExtent(8),
		arrays: map[string][]float64{"a": ones(1, 4, 4)},
	},
	{
		name:    "rounding store",
		src:     "program roundstore\ninteger k\nk = 2.6\nend\n",
		dump:    "constprop",
		scalars: map[string]float64{"k": 3}, wantDump: "k.1@s0 = 3\n",
	},
	{
		// A constant bound accepts what a scalar-reading bound accepts.
		name: "max in constant bound", src: maxBound("", "n"), twin: maxBound("k = 4", "k"),
		arrays: map[string][]float64{"a": ones(1, 4, 8)},
	},
	{
		// A bound rounds: 3.5 is 4 iterations to the run, and to the trip-count
		// proof behind the lastprivate copy-out of x.
		name: "fractional bound", src: boundedBy("7/2"), twin: boundedBy("4"),
		dump: "autopriv", wantDump: "x wrt i-loop: lastprivate",
		scalars: map[string]float64{"x": 4},
		arrays:  map[string][]float64{"a": ones(1, 4, 8), "b": {4, 4, 4, 4, 4, 4, 4, 4}},
	},
}

// TestCompileTimeValueIsRunTimeValue runs the programs on which the front
// half's private evaluators and tree rebuilders had drifted from the run
// time, at P=4 under every strategy and on both backends: the analysis must
// read an expression as the machine computes it.
func TestCompileTimeValueIsRunTimeValue(t *testing.T) {
	run := func(t *testing.T, c *Compiled) *Report {
		t.Helper()
		rep, err := c.Diff(context.Background(), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Match() {
			t.Fatalf("backends disagree: %s", rep)
		}
		return rep.Sim
	}
	for _, mp := range meaningPrograms {
		for _, strat := range Strategies() {
			t.Run(mp.name+"/"+strat.Name, func(t *testing.T) {
				opts := strat.Opts
				opts.DumpAfter = mp.dump
				c, err := Compile(mp.src, 4, opts)
				if mp.wantErr != "" {
					var d *diag.Diagnostic
					if !errors.As(err, &d) || d.Code == "" || d.Pos.Line != 4 || d.Pos.Col == 0 ||
						!strings.Contains(d.Msg, mp.wantErr) {
						t.Fatalf("Compile: %v; want a coded diagnostic at line 4 naming %q", err, mp.wantErr)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if snap := c.Profile().Dumps[mp.dump]; !strings.Contains(snap, mp.wantDump) {
					t.Errorf("snapshot after %s lacks %q:\n%s", mp.dump, mp.wantDump, snap)
				}
				check := func(rep *Report) {
					t.Helper()
					for name, want := range mp.scalars {
						if got := rep.Scalars[name]; got != want {
							t.Errorf("%s = %v, want %v", name, got, want)
						}
					}
					for name, want := range mp.arrays {
						if got := rep.Arrays[name]; fmt.Sprint(got) != fmt.Sprint(want) {
							t.Errorf("%s = %v, want %v", name, got, want)
						}
					}
				}
				check(run(t, c))
				if mp.twin != "" {
					tc, err := Compile(mp.twin, 4, opts)
					if err != nil {
						t.Fatal(err)
					}
					check(run(t, tc))
				}
			})
		}
	}
}
