// Swept runs against the oracle: bodies chosen for the dependences they carry
// — each must be swept or refused as its case says, and match the tree-walking
// reference to the bit either way — and generated ones.
package eval_test

import (
	"fmt"
	"slices"
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
// range, for a subscript of stride two. With n = 300 a run on one processor is
// 297 iterations: two strips and a short one, so a scalar the body writes is
// left between strips and a carried one taken up again.
const sweepTemplate = `
program t
parameter n = 300
parameter m = 600
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

// sweepTemplate2 is FuzzSweepBody's 2-D arm: the loop runs inside do j, over
// arrays of n columns, so a subscript moves with the run's index in either
// dimension while the enclosing j stands — and one of 2*i - d past column n
// goes out of bounds at a run's far end only.
const sweepTemplate2 = `
program t
parameter n = 40
parameter m = 80
real a(m, n), b(m, n), c(m, n), t, u, w
integer idx(m)
integer k
integer i, j
!hpf$ distribute (%s, *) :: a
!hpf$ align (i, j) with a(i, j) :: b, c
do j = 1, n
  do i = 1, m
    a(i, j) = i * 0.5 - j
    b(i, j) = (m - i) * 0.25 + j
    c(i, j) = mod(i * 7 + j, 13) - 6.0
  end do
end do
do i = 1, m
  idx(i) = m + 1 - i
end do
t = 0.75
u = -1.5
w = 3.0
k = 2
do j = 2, 3
  do i = %s
%s
  end do
end do
c(1, 1) = t + u + k
end
`

// The loop forms a case is run under: 297 iterations up, 297 down, 75 of
// stride 2.
var sweepLoops = []struct {
	bounds string
	iters  int64
}{{"2, n - 2", 297}, {"n - 2, 2, -1", 297}, {"2, n / 2, 2", 75}}

// TestSweepDependences holds the legality test of a sweep to what each body's
// dependences allow, form by form of the loop ('S' the runs are swept, 'O' a
// sweep would reverse a dependence and the kernel runs them in iteration
// order, 'N' the loop has no kernel and its programs run them), and the run to
// the oracle — memory, every processor's clock, statistics and the instance
// count, bit for bit — under every distribution, processor count and
// strategy. A run with a kernel is closed a strip of up to eval.Strip
// iterations at a time either way, one with none an iteration at a time. Where the arrays are not
// distributed every instance of the loop lies in one quiet run, so the counts
// are exact there; elsewhere a boundary iteration may take the general walk,
// and a run shorter than the loop may sweep where the whole loop may not
// (its addresses meet less), so the census may only not contradict the case —
// but must show both outcomes on blocks as well.
func TestSweepDependences(t *testing.T) {
	cases := []struct {
		name  string
		body  []string
		forms string // by sweepLoops
	}{
		// The read is first, the store second, one element ahead: going up it
		// reads what the iteration before stored.
		{"flow-in-statement", []string{"a(i) = a(i-1) + 1.5"}, "OSS"},
		{"anti-in-statement", []string{"a(i) = a(i+1) + 1.5"}, "SOS"},
		{"anti-across-statements", []string{"b(i) = a(i+1)", "a(i) = c(i) * 2"}, "SOS"},
		{"flow-across-statements", []string{"a(i) = c(i) * 2", "b(i) = a(i-1)"}, "SOS"},
		// The store is first: every a(i) would be new before any a(i+1) is read.
		{"anti-behind-store", []string{"a(i) = c(i) * 2", "b(i) = a(i+1)"}, "OSS"},
		{"swap-through-scalar", []string{"t = a(i)", "a(i) = b(i)", "b(i) = t"}, "SSS"},
		// A scalar carried from iteration to iteration by its one write, s = s ⊕
		// e or s = e ⊕ s: a kCarry, in iteration order, each value left in the
		// register the later statements read.
		{"carried-scalar", []string{"t = t + a(i)", "b(i) = t"}, "SSS"},
		{"carried-right-operand", []string{"u = a(i) - u * 0.5", "b(i) = u"}, "NNN"},
		{"carried-right", []string{"u = c(i) / u", "b(i) = u + a(i)"}, "SSS"},
		{"carried-max-min", []string{"t = max(t, a(i) * c(i))", "u = min(b(i), u)", "b(i) = t - u"}, "SSS"},
		{"carried-integer", []string{"k = k + c(i) * 0.3", "b(i) = k"}, "SSS"},
		// Reductions: privatized under ReduceAuto (folded into the partial
		// row), carried under ReduceCollective.
		{"reduction-sum-difference", []string{"t = t - a(i) * c(i)", "w = b(i) + w"}, "SSS"},
		{"reduction-max-min", []string{"t = max(t, abs(a(i)))", "u = min(u, c(i))", "k = k + 1"}, "SSS"},
		// NaN and -0 in the data: sqrt of a negative c(i), and -(0 · a(i)).
		{"reduction-nan-negative-zero", []string{"t = max(t, sqrt(c(i)))", "u = max(u, -(0.0 * a(i)))", "w = min(sqrt(c(i) + 2.0), w)"}, "SSS"},
		{"carried-read-before-write", []string{"b(i) = t", "t = t + a(i)"}, "NNN"},
		{"carried-written-twice", []string{"t = t + a(i)", "t = t * 0.5"}, "NNN"},
		{"carried-reads-itself", []string{"t = t + t * a(i)"}, "NNN"},
		{"scalar-read-before-write", []string{"b(i) = u", "u = a(i)"}, "NNN"},
		{"live-out-scalar", []string{"u = a(i) * 2.0", "b(i) = u + w", "u = u - b(i)"}, "SSS"},
		{"integer-scalar", []string{"k = i / 2", "b(i) = a(i) + k", "k = k * b(i) + 0.5"}, "SSS"},
		{"fixed-element-read-back", []string{"a(3) = b(i)", "c(i) = a(3)"}, "OOO"},
		{"fixed-element-last-write-wins", []string{"a(3) = b(i)"}, "SSS"},
		// Two stores of a: going up, the second statement's a(i) is the
		// element the first overwrites an iteration later.
		{"output-across-statements", []string{"a(i-1) = b(i)", "a(i) = c(i)"}, "OSS"},
		// Unequal steps: refused when the two ranges meet, 3..299 and 2..298 —
		// which on the stride-two loop, 151..299 and 2..150, they do not.
		{"mirror", []string{"a(i) = a(n-i+1) + 1"}, "OOS"},
		{"stride-two-store", []string{"a(2*i-2) = a(i) + 1"}, "OOO"},
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
							diffOne(t, p, core.ReduceCollective)
							walk, err := eval.LoweredSimulate(p, core.ReduceAuto)
							if err != nil {
								t.Fatal(err)
							}
							c, all := walk.Census, loop.iters*int64(len(tc.body))
							form := tc.forms[f]
							exact := eval.Census{Quiet: all, Strips: loop.iters}
							switch form {
							case 'S':
								exact.Swept, exact.Strips = all, (loop.iters+eval.Strip-1)/eval.Strip
							case 'O':
								exact.Ordered, exact.Strips = all, (loop.iters+eval.Strip-1)/eval.Strip
							}
							if dist == "*" && (c.Swept != exact.Swept || c.Ordered != exact.Ordered || c.Quiet != all || c.Strips != exact.Strips) {
								t.Errorf("census %+v, want %d instances in quiet runs, %d swept and %d in iteration order, closed by %d operations",
									c, all, exact.Swept, exact.Ordered, exact.Strips)
							}
							kernel := c.Swept + c.Ordered
							if form == 'S' && c.Ordered != 0 || form != 'N' && kernel != c.Quiet || form == 'N' && kernel != 0 {
								t.Errorf("census %+v contradicts the case's %q", c, form)
							}
							if kernel > 0 && nprocs > 1 {
								seen[dist+string(form)]++
							}
						})
					}
				}
			}
		}
	}
	if seen["blockS"] == 0 || seen["blockO"] == 0 || seen["*S"] == 0 || seen["*O"] == 0 {
		t.Errorf("configurations on several processors with swept or refused runs, by distribution and case: %v; the test no longer sees the sweep", seen)
	}
}

// genBody writes a flat loop body from fuzz bytes: one to four assignments to
// an element of one of three arrays or to one of three scalars (k is an
// integer), of small expressions over those, the loop index and constants,
// and maybe a scalar carried from iteration to iteration.
// Array subscripts are c·i + d with c in {-1, 0, 1, 2} and d such that i in
// [2, n-2] stays within the arrays (sweepTemplate's, 2n long), or such a
// position of the subscript table. In the 2-D arm (rank2) that subscript is
// either dimension's, and the other one j - 1 + d with d in {0, 1, 2}.
type genBody struct {
	data  []byte
	pos   int
	rank2 bool
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
	sub := fmt.Sprintf("2*i - %d", d) // 1 .. 2n-4
	switch g.next(5) {
	case 4:
		sub = fmt.Sprintf("idx(i - 1 + %d)", d) // through the table, which no body writes
	case 0:
		sub = fmt.Sprintf("n + %d - i", d) // 2 .. n+1
	case 1:
		sub = fmt.Sprint(d + 1)
	case 2:
		sub = fmt.Sprintf("i - 1 + %d", d) // 1 .. n
	}
	switch {
	case !g.rank2:
		return fmt.Sprintf("%s(%s)", arr, sub)
	case g.next(2) == 0:
		return fmt.Sprintf("%s(%s, j - 1 + %d)", arr, sub, g.next(3))
	}
	return fmt.Sprintf("%s(j - 1 + %d, %s)", arr, g.next(3), sub)
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
	// Bytes left over may add a carried scalar, s = s ⊕ e or s = e ⊕ s with ⊕
	// an operator, max or min, at any place: read before the body writes it.
	// (Taken last, so that a shorter input spells the body it spelled before.)
	if op := g.next(7); op > 0 {
		s := []string{"t", "u", "k"}[g.next(3)]
		l, r := s, g.expr(1)
		at := g.next(len(lines) + 1)
		if g.next(2) == 1 {
			l, r = r, l
		}
		line := fmt.Sprintf("  %s = %s(%s, %s)", s, []string{"max", "min"}[(op-5)&1], l, r)
		if op <= 4 {
			line = fmt.Sprintf("  %s = %s %s %s", s, l, []string{"+", "-", "*", "/"}[op-1], r)
		}
		lines = slices.Insert(lines, at, line)
	}
	return strings.Join(lines, "\n")
}

// FuzzSweepBody: whatever flat body the bytes spell, under whichever loop form,
// distribution and processor count they pick, the production walk — sweeping
// the runs its legality test accepts — leaves what the oracle leaves. A first
// byte from 0x80 up picks the 2-D arm (sweepTemplate2). The corpus
// (testdata/fuzz/FuzzSweepBody) adds two bodies that leave NaNs of different
// bits on the two sides, which sameBits must take as equal.
func FuzzSweepBody(f *testing.F) {
	for _, seed := range []string{
		"", "swept runs", "\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8\xf7\xf6\xf5\xf4\xf3\xf2\xf1\xf0",
		// (*), going up, P=3: a(i - 1 + 1) = (a(i - 1 + 0) + 3.0), a recurrence.
		"\x02\x00\x01\x00\x00\x00\x01\x02\x01\x00\x02\x00\x00\x00\x02\x00\x01\x03\x00",
		// The same going down, where it is none, on blocks.
		"\x00\x01\x02\x00\x00\x00\x01\x02\x01\x00\x02\x00\x00\x00\x02\x00\x01\x03\x00",
		// The recurrence again, behind a carried scalar: t = t + a(n + 0 - i).
		"\x02\x00\x01\x00\x00\x00\x01\x02\x01\x00\x02\x00\x00\x00\x02\x00\x01\x03\x00\x01\x00\x00\x02\x01",
		// (*), P=1: t = a(2*i - 0); a(n + 1 - i) = (t * k); k = b(3).
		"\x02\x00\x00\x02\x03\x00\x00\x02\x00\x00\x00\x03\x00\x00\x01\x00\x01\x00\x02\x03\x00\x00\x02\x03\x02\x02\x03\x02\x00\x02\x00\x01\x02\x01",
		// The carried forms. Blocks going down, P=4: u = max(u, i) — a
		// reduction, privatized under ReduceAuto.
		"\x03\x04\x05\x04\x05\a\x04\a\x00\x04\x05\a\x00\x04\x00",
		// (*) stride two, P=4: t = (3.0 < c(n + 2 - i)) / t, s on the right.
		"\x05\x05\x05\x04\x05\x05\x04\x01\x03\x05\a\x04\x06\x02\x01\x03\x06\x01\x05\x06\x05\a\x02\x01",
		// (*), P=1: k = k + 0.5, rounded at each step; b(i - 1 + 0) = k.
		"\x02\x00\x00\x00\x00\x01\x00\x02\x00\x02\x03\x02\x01\x02\x00\x01\x00\x00\x00",
		// Cyclic going up, P=1: u = min(0.5, u).
		"\x04\x03\x00\x00\x02\x06\x01\x02\x06\x00\x06\x01\x06\x05\x00\a\x03\x06\x00\x01\x05",
		// (*), P=3, NaN and -0 in the data: b(i) = -1.25 * (i < 0.5), which
		// is -0, and t = max(t, b(i) / b(i)), a NaN that must never win.
		"\x02\x00\x01\x00\x00\x01\x01\x02\x01\x00\x01\x02\x01\x00\x01\x00\x07\x02\x05\x00\x01\x03\x00\x01\x01\x02\x03\x00\x01\x01\x02\x03\x01\x00",
		// (*), going up, P=1: a(i - 1 + 0) = b(i - 1 + 1), a unit-stride
		// store (and load), which the kernel copies.
		"\x02\x00\x00\x00\x00\x00\x00\x02\x00\x02\x00\x01\x01\x02",
		// The same store through a(n + 0 - i), which goes down: no copy.
		"\x02\x00\x00\x00\x00\x00\x00\x00\x00\x02\x00\x01\x01\x02",
		// TOMCATV's r1/r2 shape, refused and run in iteration order: two
		// recurrences, t = (a(i - 1 + 1) + a(i - 1 + 0)); a(i - 1 + 1) = t, and
		// the same of u through b.
		"\x02\x00\x00\x03\x03\x00\x01\x00\x02\x00\x00\x01\x02\x00\x02\x00\x00\x00\x02\x00" +
			"\x00\x00\x01\x02\x00\x02\x03\x00\x03\x01\x01\x00\x02\x00\x01\x01\x02\x00\x02\x00\x01\x00\x02\x00" +
			"\x00\x01\x01\x02\x00\x02\x03\x01",
		// The 2-D arm, (*) going up, P=1: a(j - 1 + 1, 2*i - 0) = b(i - 1 + 1,
		// j - 1 + 1), whose second subscript leaves a's n columns at i = 21,
		// the far end of the run and not its first iteration.
		"\x80\x00\x00\x00\x00\x00\x00\x03\x01\x01\x00\x02\x00\x01\x01\x02\x00\x01",
		// Blocks, stride two, P=3: c(j - 1 + 2, 2*i - 1) = a(n + 0 - i, j - 1 + 0).
		"\x81\x02\x01\x00\x00\x02\x01\x03\x01\x02\x00\x02\x00\x00\x00\x00\x00\x00",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			return
		}
		g := &genBody{data: data, rank2: len(data) > 0 && data[0] >= 0x80}
		dist := []string{"block", "cyclic", "*"}[g.next(3)]
		loop := sweepLoops[g.next(3)].bounds
		nprocs := []int{1, 3, 4}[g.next(3)]
		template := sweepTemplate
		if g.rank2 {
			template = sweepTemplate2
		}
		src := fmt.Sprintf(template, dist, loop, g.body())
		ap, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("the generator wrote a program that does not parse: %v\n%s", err, src)
		}
		res, err := core.BuildAndAnalyze(ap, nprocs, core.DefaultOptions())
		if err != nil {
			t.Fatalf("analyze: %v\n%s", err, src)
		}
		p := spmd.Generate(res)
		diffOne(t, p, core.ReduceAuto)
		diffOne(t, p, core.ReduceCollective)
		if t.Failed() {
			t.Logf("P=%d\n%s", nprocs, src)
		}
	})
}
