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
	"phpf/internal/machine"
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

// sameBits compares two memory images bit for bit, but for a NaN: any two are
// equal. Which operand's NaN an operation on two keeps is not Go's to say, and
// the lowered closures and the oracle take their operands in different orders.
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
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) && !(math.IsNaN(g[i]) && math.IsNaN(w[i])) {
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

// diffOne runs one compiled program through both interpreters: the oracle
// against internal/sim, and against the production walk underneath it
// (LoweredSimulate), which also hands out what internal/sim does not — every
// processor's clock, the count of statement instances charged, and the state a
// failed run leaves. Where the program fails, both must fail with the same
// text at the same statement instance, having charged the machine the same
// and leaving the same memory behind.
func diffOne(t *testing.T, p *spmd.Program, reduce core.ReduceMode) {
	t.Helper()
	want, werr := eval.OracleSimulate(p, reduce)
	got, gerr := sim.Run(p, sim.Config{Reduce: reduce})
	walk, lerr := eval.LoweredSimulate(p, reduce)
	if (werr == nil) != (gerr == nil) || werr != nil && gerr.Error() != "sim: "+werr.Error() {
		t.Errorf("lowered run: %v\noracle run:  %v", gerr, werr)
		return
	}
	if (werr == nil) != (lerr == nil) || werr != nil && lerr.Error() != werr.Error() {
		t.Errorf("production walk: %v\noracle run:      %v", lerr, werr)
		return
	}
	if walk.Instances != want.Instances {
		t.Errorf("%d statement instances charged, oracle %d", walk.Instances, want.Instances)
	}
	for p, c := range want.Clocks {
		if walk.Clocks[p] != c {
			t.Errorf("clock of processor %d at %v, oracle %v", p, walk.Clocks[p], c)
		}
	}
	sameState(t, walk.Time, walk.Stats, walk.Arrays, walk.Scalars, want)
	if gerr == nil {
		sameState(t, got.Time, got.Stats, got.Arrays, got.Scalars, want)
	}
}

func sameState(t *testing.T, time float64, stats machine.Stats, arrays map[string][]float64,
	scalars map[string]float64, want *eval.OracleResult) {
	t.Helper()
	if time != want.Time {
		t.Errorf("simulated time %v, oracle %v", time, want.Time)
	}
	if stats != want.Stats {
		t.Errorf("stats %+v\noracle %+v", stats, want.Stats)
	}
	sameBits(t, "arrays", arrays, want.Arrays)
	sameBits(t, "scalars", scalarImage(scalars), scalarImage(want.Scalars))
}

// blockRuns is the throughput kernel with an alignment offset and a shifted
// read: under BLOCK the owner runs of its three statements end at different
// iterations, mid-loop whenever P does not divide n.
const blockRuns = `
program t
parameter n = 37
real a(n), bb(n), c(n)
integer i, it
!hpf$ distribute (block) :: a
!hpf$ align bb(i) with a(i)
!hpf$ align c(i) with a(i+2)
do i = 1, n
  bb(i) = i * 0.25
  c(i) = 0.0
end do
do it = 1, 2
  do i = 2, n - 2
    a(i) = bb(i) * 0.5 + bb(i-1)
    c(i) = a(i) + c(i)
    bb(i+1) = c(i) - 1.0
  end do
  do i = n - 3, 1, -2
    bb(i) = a(i+1) + c(i+2)
  end do
end do
end
`

// TestLoweredMatchesOracle: every figure and kernel under every strategy at
// P in {1,3,4,5,6,7,8,16} — processor counts that divide the extents and ones
// that leave short last blocks, block boundaries in mid-loop and uneven 2-D
// grids — under both reduction modes a run can select.
func TestLoweredMatchesOracle(t *testing.T) {
	sources := map[string]string{
		"tomcatv":    programs.TOMCATV(10, 2),
		"tomcatv11":  programs.TOMCATV(11, 1),
		"dgefa":      programs.DGEFA(12),
		"dgefa13":    programs.DGEFA(13),
		"appsp1d":    programs.APPSP(4, 4, 4, 1, false),
		"appsp2d":    programs.APPSP(4, 4, 4, 1, true),
		"appsp2d567": programs.APPSP(5, 6, 7, 1, true),
		"smooth":     programs.Smooth(24, 2),
		"histogram":  programs.Histogram(96, 16, 2),
		"dotsweep":   programs.DotSweep(16, 12),
		"blockruns":  blockRuns,
		"cyclicruns": strings.Replace(blockRuns, "(block)", "(cyclic)", 1),
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
			for _, nprocs := range []int{1, 3, 4, 5, 6, 7, 8, 16} {
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
		{"negative-step-run", `
program t
parameter n = 19
real a(n), b(n)
integer i
!hpf$ distribute (block) :: a
!hpf$ align b(i) with a(i)
do i = 1, n
  b(i) = i
end do
do i = n, 2, -1
  a(i) = b(i) * 2.0 + b(i-1)
  b(i-1) = a(i) - 1.0
end do
end
`, ""},
		{"zero-trip-run", `
program t
parameter n = 8
real a(n)
integer i, it
!hpf$ distribute (block) :: a
do it = 1, 2
  do i = 5, 4
    a(i+100) = 1.0
  end do
  do i = 4, 5, -1
    a(i+100) = 1.0
  end do
  a(it) = it
end do
end
`, ""},
		{"redistribute-between-entries", `
program t
parameter n = 18
real a(n), b(n)
integer i, it
!hpf$ distribute (block) :: a
!hpf$ align b(i) with a(i)
do i = 1, n
  a(i) = i
  b(i) = 1.0
end do
do it = 1, 3
  do i = 2, n
    a(i) = a(i) + b(i-1)
    b(i) = a(i) * 0.5
  end do
!hpf$ redistribute a(cyclic)
end do
end
`, ""},
		{"non-affine-collapsed-dimension", `
program t
parameter n = 12
real a(n,4), b(n)
integer i, k
!hpf$ distribute (block,*) :: a
!hpf$ align b(i) with a(i,1)
k = 3
do i = 1, n
  a(i, mod(i, 4) + 1) = i
  b(i) = a(i, k) + a(i, mod(i*i, 4) + 1)
end do
end
`, ""},
		{"non-affine-collapsed-out-of-range", `
program t
parameter n = 12
real a(n,4), x
integer i
!hpf$ distribute (block,*) :: a
x = 4.0
do i = 1, n
  a(i, 2) = i
  a(i, max(i - 2, 0) * x * 4503599627370496 + 1) = 1.0
end do
end
`, "exceeds 2^53"},
	}
	for _, at := range []struct {
		where  string
		extent int // b(i+4) leaves b at i = extent-3
	}{{"first", 8}, {"middle", 10}, {"last", 11}} {
		// Under BLOCK on 4 processors a's owner runs are i = 1-4, 5-8, 9-12,
		// 13-16: the access fails at the first, a middle and the last
		// iteration of the second, after the statements before it — and the
		// iterations before that — have left their stores behind.
		for _, acc := range []struct{ kind, stmt, msg string }{
			{"read", "x = b(i+4)", "b subscript 1 out of bounds: %d (extent %d)"},
			{"store", "b(i+4) = a(i)", "line 13: b subscript 1 out of bounds: %d (extent %d)"},
		} {
			cases = append(cases, struct{ name, src, wantErr string }{
				fmt.Sprintf("%s-out-of-bounds-at-%s-of-run", acc.kind, at.where),
				fmt.Sprintf(`
program t
parameter n = 16
real a(n), b(%d), c(n), x
integer i
!hpf$ distribute (block) :: a
!hpf$ align c(i) with a(i)
do i = 1, n
  c(i) = 0.0
end do
do i = 1, n
  a(i) = i * 2.0
  %s
  c(i) = a(i) + 1.0
end do
end
`, at.extent, acc.stmt),
				fmt.Sprintf(acc.msg, at.extent+1, at.extent),
			})
		}
	}
	// Inside a quiet run, not at its ends: the subscript is data (key(10) =
	// 99, the tenth of 24 iterations is in mid-run at P = 1, 3 and 4), so no
	// end check sees it and the run meets it after its iteration's first
	// statement has stored — charged, like the failing one, and the third not.
	// The table r is replicated and key aligned with a: nothing moves. A store
	// through such a subscript cannot fail inside a run: it makes the
	// statement's execution set data-dependent, and its loop has no runs.
	midRun := map[string]eval.Census{}
	for _, acc := range []struct {
		kind, stmt, msg string
		census          eval.Census
	}{
		// 2 × 24 + 9 × 3 quiet instances, then the tenth iteration's first two
		// charged one by one; key(10) = 99 is the general walk's. The first loop
		// is swept; the one that fails has no kernel — nothing that can fail has.
		{"read", "c(i) = r(key(i)) + a(i)", "r subscript 1 out of bounds: 99 (extent 8)",
			eval.Census{Quiet: 75, Loud: 2, General: 1, Swept: 48}},
		{"store", "r(key(i)) = a(i)", "line 17: r subscript 1 out of bounds: 99 (extent 8)",
			eval.Census{Quiet: 48, General: 30, Swept: 48}},
	} {
		name := acc.kind + "-through-data-subscript-in-mid-loop"
		midRun[name] = acc.census
		cases = append(cases, struct{ name, src, wantErr string }{name, fmt.Sprintf(`
program t
parameter n = 24
real a(n), c(n), r(8)
integer key(n)
integer i
!hpf$ distribute (block) :: a
!hpf$ align c(i) with a(i)
!hpf$ align key(i) with a(i)
do i = 1, n
  key(i) = mod(i, 8) + 1
  c(i) = 0.0
end do
key(10) = 99
do i = 1, n
  a(i) = i * 2.0
  %s
  c(i) = c(i) + 1.0
end do
end
`, acc.stmt), acc.msg})
	}
	for _, tc := range cases {
		for _, nprocs := range []int{1, 3, 4} {
			t.Run(fmt.Sprintf("%s/P=%d", tc.name, nprocs), func(t *testing.T) {
				p := compileOpts(t, tc.src, nprocs, core.DefaultOptions())
				diffOne(t, p, core.ReduceAuto)
				if want, ok := midRun[tc.name]; ok {
					walk, _ := eval.LoweredSimulate(p, core.ReduceAuto)
					got := walk.Census
					got.QuietRuns, got.Strips = 0, 0 // one a block: as many as P has it
					if got != want {
						t.Errorf("census %+v, want %+v: the failure is not where the case puts it", got, want)
					}
				}
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
