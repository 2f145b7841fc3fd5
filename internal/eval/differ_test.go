// Lowered-versus-oracle differential tests: the production simulation
// (internal/sim over the lowered form) against the tree-walking reference
// (OracleSimulate, oracle_test.go) — final memory, machine statistics and
// simulated time bit for bit, and the same error where the program fails.
package eval_test

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"phpf/internal/core"
	"phpf/internal/eval"
	"phpf/internal/parser"
	"phpf/internal/programs"
	"phpf/internal/sim"
	"phpf/internal/spmd"
)

func compileOpts(t *testing.T, src string, nprocs int, opts core.Options) *spmd.Program {
	t.Helper()
	ap, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := core.BuildAndAnalyze(ap, nprocs, opts)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return spmd.Generate(res)
}

// strategies are the paper's three scalar-mapping compilers.
func strategies() map[string]core.Options {
	producer := core.DefaultOptions()
	producer.Scalars = core.ScalarsProducerAligned
	naive := core.DefaultOptions()
	naive.Scalars = core.ScalarsReplicated
	naive.AlignReductions = false
	return map[string]core.Options{"selected": core.DefaultOptions(), "producer": producer, "naive": naive}
}

// sameBits compares two memory images bit for bit (NaNs included).
func sameBits(t *testing.T, what string, got, want map[string][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d variables, oracle has %d", what, len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok || len(g) != len(w) {
			t.Errorf("%s: %s has %d elements, oracle has %d", what, name, len(g), len(w))
			continue
		}
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Errorf("%s: %s[%d] = %v, oracle %v", what, name, i, g[i], w[i])
				break
			}
		}
	}
}

func scalarImage(m map[string]float64) map[string][]float64 {
	out := make(map[string][]float64, len(m))
	for k, v := range m {
		out[k] = []float64{v}
	}
	return out
}

// diffOne runs one compiled program through both interpreters.
func diffOne(t *testing.T, p *spmd.Program, reduce core.ReduceMode) {
	t.Helper()
	want, werr := eval.OracleSimulate(p, reduce)
	got, gerr := sim.Run(p, sim.Config{Reduce: reduce})
	if werr != nil || gerr != nil {
		if werr == nil || gerr == nil || gerr.Error() != "sim: "+werr.Error() {
			t.Errorf("lowered run: %v\noracle run:  %v", gerr, werr)
		}
		return
	}
	if got.Time != want.Time {
		t.Errorf("simulated time %v, oracle %v", got.Time, want.Time)
	}
	if got.Stats != want.Stats {
		t.Errorf("stats %+v\noracle %+v", got.Stats, want.Stats)
	}
	sameBits(t, "arrays", got.Arrays, want.Arrays)
	sameBits(t, "scalars", scalarImage(got.Scalars), scalarImage(want.Scalars))
}

// TestLoweredMatchesOracle: every figure and kernel under every strategy at
// P in {1,4,8,16}, under both reduction modes a run can select.
func TestLoweredMatchesOracle(t *testing.T) {
	sources := map[string]string{
		"tomcatv":   programs.TOMCATV(10, 2),
		"dgefa":     programs.DGEFA(12),
		"appsp1d":   programs.APPSP(4, 4, 4, 1, false),
		"appsp2d":   programs.APPSP(4, 4, 4, 1, true),
		"smooth":    programs.Smooth(24, 2),
		"histogram": programs.Histogram(96, 16, 2),
		"dotsweep":  programs.DotSweep(16, 12),
	}
	for name, src := range programs.Figures {
		sources[name] = src
	}
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for sname, opts := range strategies() {
			for _, nprocs := range []int{1, 4, 8, 16} {
				for _, reduce := range []core.ReduceMode{core.ReduceAuto, core.ReduceCollective} {
					t.Run(fmt.Sprintf("%s/%s/P=%d/%s", name, sname, nprocs, reduce), func(t *testing.T) {
						diffOne(t, compileOpts(t, sources[name], nprocs, opts), reduce)
					})
				}
			}
		}
	}
}

// TestLoweredErrorParity: programs that fail (or nearly fail) only when
// executed must fail identically — same text, same point — and the ones that
// exercise the non-affine paths must still agree on every bit.
func TestLoweredErrorParity(t *testing.T) {
	cases := []struct {
		name, src string
		wantErr   string // substring of the expected error ("" = must succeed)
	}{
		{"read-out-of-bounds", `
program t
real a(8), x
integer i
!hpf$ distribute (block) :: a
do i = 1, 8
  x = a(i+1)
end do
end
`, "a subscript 1 out of bounds: 9 (extent 8)"},
		{"store-out-of-bounds", `
program t
real a(8)
integer i
!hpf$ distribute (block) :: a
do i = 1, 8
  a(2*i-1) = 1.0
end do
end
`, "line 7: a subscript 1 out of bounds: 9 (extent 8)"},
		{"bound-beyond-2^53", `
program t
real x
integer i
do i = 1, 18014398509481984
  x = 1.0
end do
end
`, "exceeds 2^53"},
		{"subscript-beyond-2^53", `
program t
real a(8), x
integer i
do i = 2, 3
  x = a(i*9007199254740992)
end do
end
`, "exceeds 2^53"},
		{"zero-step", `
program t
real x
integer i, k
k = 0
do i = 1, 8, k
  x = 1.0
end do
end
`, "zero loop step at line 6"},
		{"goto-escape", `
program t
real x
integer i
x = 1.0
if (x > 0.0) goto 10
do i = 1, 2
10 continue
end do
end
`, "goto 10 escaped the program"},
		{"non-affine-subscripts", `
program t
parameter n = 12
real a(n), b(n,n)
integer i, j, k
!hpf$ distribute (block) :: a
!hpf$ distribute (block,block) :: b
do i = 1, n
  a(i) = i
  do j = 1, n
    b(i,j) = i + j
  end do
end do
k = 3
do i = 1, n - 2
  a(mod(i*k, n) + 1) = a(i) + b(i, (i*i)/n + 1) + b(min(i+k, n), max(i-k, 1))
end do
end
`, ""},
		{"data-dependent-subscripts", `
program t
parameter n = 16
real a(n), h(n)
integer idx(n)
integer i
!hpf$ distribute (block) :: a, h
!hpf$ align idx(i) with a(i)
do i = 1, n
  a(i) = i
  idx(i) = n + 1 - i
  h(i) = 0.0
end do
do i = 1, n
  h(idx(i)) = h(idx(i)) + a(idx(idx(i)))
end do
end
`, ""},
		{"data-dependent-out-of-bounds", `
program t
parameter n = 8
real a(n), x
integer idx(n)
integer i
!hpf$ distribute (block) :: a
do i = 1, n
  a(i) = i
  idx(i) = i * 2
end do
do i = 1, n
  x = a(idx(i))
end do
end
`, "a subscript 1 out of bounds: 10 (extent 8)"},
		{"redistribute-mid-run", `
program t
parameter n = 16
real a(n,n), b(n,n)
integer i, j, it
!hpf$ distribute (block,*) :: a
!hpf$ align b(i,j) with a(i,j)
do i = 1, n
  do j = 1, n
    a(i,j) = i + j
    b(i,j) = 0.0
  end do
end do
do it = 1, 2
  do i = 2, n
    do j = 1, n
      b(i,j) = a(i-1,j) + a(i,j)
    end do
  end do
!hpf$ redistribute a(*,block)
  do i = 1, n
    do j = 2, n
      a(i,j) = b(i,j-1) * 0.5
    end do
  end do
end do
end
`, ""},
		{"negative-step-and-if", `
program t
parameter n = 10
real a(n), s
integer i
!hpf$ distribute (cyclic) :: a
s = 0.0
do i = n, 1, -3
  a(i) = i
  if (a(i) > 4.0 and not (i == 7)) then
    s = s + a(i)
  else
    s = s - 1.0
  end if
end do
end
`, ""},
	}
	for _, tc := range cases {
		for _, nprocs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/P=%d", tc.name, nprocs), func(t *testing.T) {
				p := compileOpts(t, tc.src, nprocs, core.DefaultOptions())
				diffOne(t, p, core.ReduceAuto)
				_, err := sim.Run(p, sim.Config{})
				switch {
				case tc.wantErr == "":
					if err != nil {
						t.Errorf("unexpected error: %v", err)
					}
				case err == nil || !strings.Contains(err.Error(), tc.wantErr):
					t.Errorf("got %v, want an error containing %q", err, tc.wantErr)
				}
			})
		}
	}
}
