// Swept runs against the oracle: bodies chosen for the dependences they carry
// — each must be swept or refused as its case says, and match the tree-walking
// reference to the bit either way — and generated ones.
package eval_test

import (
	"fmt"
	"strings"
	"testing"

	"phpf/internal/core"
	"phpf/internal/eval"
	"phpf/internal/parser"
	"phpf/internal/spmd"
)

// sweepTemplate runs one loop over three aligned arrays, a table of subscripts,
// three scalars and an integer scalar, all defined ahead of it by a loop that has no kernel (the
// labelled CONTINUE sends it down the general walk), so every swept or refused
// instance of a run's census is the loop's. The arrays are twice the loop's
// range, for a subscript of stride two. With n = 80 a run on one processor is
// 77 iterations: two strips and a short one.
const sweepTemplate = `
program t
parameter n = 80
parameter m = 160
real a(m), b(m), c(m), t, u, w
integer idx(m)
integer k
integer i
!hpf$ distribute (%s) :: a
!hpf$ align b(i) with a(i)
!hpf$ align c(i) with a(i)
!hpf$ align idx(i) with a(i)
do i = 1, m
  a(i) = i * 0.5 - 7.0
  b(i) = (m - i) * 0.25
  c(i) = mod(i * 7, 13) - 6.0
  idx(i) = m + 1 - i
10 continue
end do
t = 0.75
u = -1.5
w = 3.0
k = 2
do i = %s
%s
end do
c(1) = t + u + k
end
`

// The loop forms a case is run under: 77 iterations up, 77 down, 20 of stride 2.
var sweepLoops = []struct {
	bounds string
	iters  int64
}{{"2, n - 2", 77}, {"n - 2, 2, -1", 77}, {"2, n / 2, 2", 20}}

// TestSweepDependences holds the legality test of a sweep to what each body's
// dependences allow, form by form of the loop ('S' the runs are swept, 'R' the
// kernel is refused, 'N' the loop has no kernel), and the run to the oracle —
// memory, every processor's clock, statistics and the instance count, bit for
// bit — under every distribution, processor count and strategy. Where the
// arrays are not distributed every instance of the loop lies in one quiet run,
// so the counts are exact there; elsewhere a boundary iteration may take the
// general walk and a transfer make a run loud (the broadcast of an element to
// a replicated scalar does, on one processor too), and the census may only not
// contradict the case — but must show both outcomes on blocks as well.
func TestSweepDependences(t *testing.T) {
	cases := []struct {
		name  string
		body  []string
		forms string // by sweepLoops
	}{
		// The read is first, the store second, one element ahead: going up it
		// reads what the iteration before stored.
		{"flow-in-statement", []string{"a(i) = a(i-1) + 1.5"}, "RSS"},
		{"anti-in-statement", []string{"a(i) = a(i+1) + 1.5"}, "SRS"},
		{"anti-across-statements", []string{"b(i) = a(i+1)", "a(i) = c(i) * 2"}, "SRS"},
		{"flow-across-statements", []string{"a(i) = c(i) * 2", "b(i) = a(i-1)"}, "SRS"},
		// The store is first: every a(i) would be new before any a(i+1) is read.
		{"anti-behind-store", []string{"a(i) = c(i) * 2", "b(i) = a(i+1)"}, "RSS"},
		{"swap-through-scalar", []string{"t = a(i)", "a(i) = b(i)", "b(i) = t"}, "SSS"},
		{"carried-scalar", []string{"t = t + a(i)", "b(i) = t"}, "NNN"},
		{"scalar-read-before-write", []string{"b(i) = u", "u = a(i)"}, "NNN"},
		{"live-out-scalar", []string{"u = a(i) * 2.0", "b(i) = u + w", "u = u - b(i)"}, "SSS"},
		{"integer-scalar", []string{"k = i / 2", "b(i) = a(i) + k", "k = k * b(i) + 0.5"}, "SSS"},
		{"fixed-element-read-back", []string{"a(3) = b(i)", "c(i) = a(3)"}, "RRR"},
		{"fixed-element-last-write-wins", []string{"a(3) = b(i)"}, "SSS"},
		// Unequal steps: refused when the two ranges meet, 3..79 and 2..78 —
		// which on the stride-two loop, 41..79 and 2..40, they do not.
		{"mirror", []string{"a(i) = a(n-i+1) + 1"}, "RRS"},
		{"stride-two-store", []string{"a(2*i-2) = a(i) + 1"}, "RRR"},
		// A subscript read from memory can be out of bounds: no kernel. (The
		// second is the trap: the access the lowering enlisted is the inner one,
		// of the same array as the outer.)
		{"data-subscript", []string{"b(i) = a(idx(i))"}, "NNN"},
		{"data-subscript-of-itself", []string{"k = idx(idx(i))", "b(i) = k"}, "NNN"},
		{"every-operator", []string{
			"t = -a(i) + b(i) * c(i) - a(i) / (b(i) + 2.0)",
			"u = abs(t) + sqrt(abs(a(i))) + exp(t * 0.001) + mod(c(i), 3.0) + min(a(i), b(i)) + max(a(i), b(i), c(i), w)",
			"b(i) = u + i * ((a(i) < c(i)) + (a(i) <= c(i)) + (a(i) > 2.0) + (a(i) >= 2.0) + (c(i) == 1.0) + (c(i) /= 1.0))",
			"c(i) = (t > 0.0 and u > 0.0) + 2 * (t > 0.0 or not (u > c(i))) + i",
		}, "SSS"},
	}
	seen := map[string]int{}
	for _, tc := range cases {
		body := "  " + strings.Join(tc.body, "\n  ")
		for f, loop := range sweepLoops {
			for _, dist := range []string{"block", "cyclic", "*"} {
				src := fmt.Sprintf(sweepTemplate, dist, loop.bounds, body)
				for sname, opts := range strategies() {
					for _, nprocs := range []int{1, 3, 4} {
						t.Run(fmt.Sprintf("%s/%s/%s/%s/P=%d", tc.name, loop.bounds, dist, sname, nprocs), func(t *testing.T) {
							p := compileOpts(t, src, nprocs, opts)
							diffOne(t, p, core.ReduceAuto)
							walk, err := eval.LoweredSimulate(p, core.ReduceAuto)
							if err != nil {
								t.Fatal(err)
							}
							c, all := walk.Census, loop.iters*int64(len(tc.body))
							form := tc.forms[f]
							exact := eval.Census{}
							switch form {
							case 'S':
								exact.Swept = all
							case 'R':
								exact.Refused = all
							}
							if dist == "*" && (c.Swept != exact.Swept || c.Refused != exact.Refused || c.Quiet != all) {
								t.Errorf("census %+v, want %d instances in quiet runs, %d swept and %d refused", c, all, exact.Swept, exact.Refused)
							}
							if form != 'S' && c.Swept != 0 || form != 'R' && c.Refused != 0 {
								t.Errorf("census %+v contradicts the case's %q", c, form)
							}
							if c.Swept+c.Refused > 0 && nprocs > 1 {
								seen[dist+string(form)]++
							}
						})
					}
				}
			}
		}
	}
	if seen["blockS"] == 0 || seen["blockR"] == 0 || seen["*S"] == 0 || seen["*R"] == 0 {
		t.Errorf("configurations on several processors with swept or refused runs, by distribution and case: %v; the test no longer sees the sweep", seen)
	}
}

// genBody writes a flat loop body from fuzz bytes: one to four assignments to
// an element of one of three arrays or to one of three scalars (k is an
// integer), of small expressions over those, the loop index and constants.
// Array subscripts are c·i + d with c in {-1, 0, 1, 2} and d such that i in
// [2, n-2] stays within the arrays (sweepTemplate's, 2n long), or such a
// position of the subscript table.
type genBody struct {
	data []byte
	pos  int
}

func (g *genBody) next(n int) int {
	if g.pos >= len(g.data) {
		return 0
	}
	b := int(g.data[g.pos])
	g.pos++
	return b % n
}

func (g *genBody) ref(scalars bool) string {
	if pick := g.next(5); scalars && pick >= 3 {
		return []string{"t", "u", "k"}[g.next(3)]
	}
	arr := []string{"a", "b", "c"}[g.next(3)]
	d := g.next(4)
	switch g.next(5) {
	case 4:
		return fmt.Sprintf("%s(idx(i - 1 + %d))", arr, d) // through the table, which no body writes
	case 0:
		return fmt.Sprintf("%s(n + %d - i)", arr, d) // 2 .. n+1
	case 1:
		return fmt.Sprintf("%s(%d)", arr, d+1)
	case 2:
		return fmt.Sprintf("%s(i - 1 + %d)", arr, d) // 1 .. n
	}
	return fmt.Sprintf("%s(2*i - %d)", arr, d) // 1 .. 2n-4
}

func (g *genBody) expr(depth int) string {
	if depth == 0 || g.next(3) == 0 {
		switch g.next(4) {
		case 0:
			return "i"
		case 1:
			return []string{"0.5", "2", "-1.25", "3.0"}[g.next(4)]
		}
		return g.ref(true)
	}
	l, r := g.expr(depth-1), g.expr(depth-1)
	switch op := g.next(9); op {
	case 4:
		return "max(" + l + ", " + r + ")"
	case 5:
		return "min(" + l + ", " + r + ", w)"
	case 6:
		return "abs(" + l + ")"
	case 7:
		return "(" + l + " < " + r + ")"
	case 8:
		return "mod(" + l + ", " + r + ")"
	default:
		return "(" + l + " " + []string{"+", "-", "*", "/"}[op] + " " + r + ")"
	}
}

func (g *genBody) body() string {
	var lines []string
	for n := 1 + g.next(4); n > 0; n-- {
		lines = append(lines, "  "+g.ref(true)+" = "+g.expr(2))
	}
	return strings.Join(lines, "\n")
}

// FuzzSweepBody: whatever flat body the bytes spell, under whichever loop form,
// distribution and processor count they pick, the production walk — sweeping
// the runs its legality test accepts — leaves what the oracle leaves.
func FuzzSweepBody(f *testing.F) {
	for _, seed := range []string{
		"", "swept runs", "\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8\xf7\xf6\xf5\xf4\xf3\xf2\xf1\xf0",
		// (*), going up, P=3: a(i - 1 + 1) = (a(i - 1 + 0) + 3.0), a recurrence.
		"\x02\x00\x01\x00\x00\x00\x01\x02\x01\x00\x02\x00\x00\x00\x02\x00\x01\x03\x00",
		// The same going down, where it is none, on blocks.
		"\x00\x01\x02\x00\x00\x00\x01\x02\x01\x00\x02\x00\x00\x00\x02\x00\x01\x03\x00",
		// (*), P=1: t = a(2*i - 0); a(n + 1 - i) = (t * k); k = b(3).
		"\x02\x00\x00\x02\x03\x00\x00\x02\x00\x00\x00\x03\x00\x00\x01\x00\x01\x00\x02\x03\x00\x00\x02\x03\x02\x02\x03\x02\x00\x02\x00\x01\x02\x01",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			return
		}
		g := &genBody{data: data}
		dist := []string{"block", "cyclic", "*"}[g.next(3)]
		loop := sweepLoops[g.next(3)].bounds
		nprocs := []int{1, 3, 4}[g.next(3)]
		src := fmt.Sprintf(sweepTemplate, dist, loop, g.body())
		ap, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("the generator wrote a program that does not parse: %v\n%s", err, src)
		}
		res, err := core.BuildAndAnalyze(ap, nprocs, core.DefaultOptions())
		if err != nil {
			t.Fatalf("analyze: %v\n%s", err, src)
		}
		diffOne(t, spmd.Generate(res), core.ReduceAuto)
		if t.Failed() {
			t.Logf("P=%d\n%s", nprocs, src)
		}
	})
}
