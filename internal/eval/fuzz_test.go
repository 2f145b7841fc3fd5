package eval

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"phpf/internal/core"
	"phpf/internal/dataflow"
	"phpf/internal/ir"
	"phpf/internal/parser"
	"phpf/internal/spmd"
	"phpf/internal/ssa"
)

// fuzzTemplate embeds one fuzzed right-hand side and one fuzzed subscript in
// a small mapped program: the subscript indexes a block-distributed array on
// both sides, so it flows through the store offset, the read offset, the
// owner set behind the execution set and the per-instance communication
// decision; the right-hand side may read any of the arrays.
const fuzzTemplate = `
program f
parameter n = 6
real a(n), c(n), b(n,n), x, y
integer idx(n)
integer i, j, k
!hpf$ distribute (block) :: a
!hpf$ align c(i) with a(i)
!hpf$ align idx(i) with a(i)
!hpf$ distribute (block,cyclic) :: b
k = 2
y = 0.5
do i = 1, n
  idx(i) = n + 1 - i
  c(i) = i
  a(i) = 1.0 / i
  do j = 1, n
    b(i,j) = i - j
  end do
end do
do i = 1, n
  do j = n, 1, -2
    x = %s
    c(%s) = x + a(%s)
  end do
end do
end
`

// setChecker is a lowered walk's backend that recomputes every execution set
// and per-instance communication decision through the oracle, on the same
// memory image, and records the first disagreement.
type setChecker struct {
	s     *State
	o     *oracle
	wrong string
}

func (c *setChecker) LoopEntry(*ir.Loop, *spmd.LoopPlan) error { return nil }
func (c *setChecker) LoopExit(*ir.Loop, *spmd.LoopPlan) error  { return nil }
func (c *setChecker) Redistribute(*ir.Stmt) error              { return nil }
func (c *setChecker) Tick() error                              { return nil }

func (c *setChecker) Statement(st *ir.Stmt, sp *spmd.StmtPlan) error {
	for _, req := range sp.PerInstance {
		got, gerr := c.s.InstanceOp(req, sp, 8)
		want, werr := c.o.InstanceOp(req, sp, 8)
		if errText(gerr) != errText(werr) || (gerr == nil && (got.Skip != want.Skip ||
			got.From != want.From || got.Bytes != want.Bytes || !got.Dst.Equal(want.Dst))) {
			c.note("s%d req %d: InstanceOp %+v (%v), oracle %+v (%v)", st.ID, req.ID, got, gerr, want, werr)
		}
		if gerr != nil {
			return gerr
		}
	}
	got, gerr := c.s.ExecSet(sp)
	want, werr := c.o.ExecSet(sp)
	if errText(gerr) != errText(werr) || (gerr == nil && !got.Equal(want)) {
		c.note("s%d: ExecSet %v (%v), oracle %v (%v)", st.ID, got, gerr, want, werr)
	}
	if gerr != nil {
		return gerr
	}
	// Any reference may be asked about, also one no owner run holds constant
	// (an operand that is local, or moved by a hoisted transfer).
	for _, ref := range st.Refs {
		if !ref.Var.IsArray() {
			continue
		}
		got, gerr := c.s.OwnerSet(ref)
		want, werr := c.o.OwnerSet(ref)
		if errText(gerr) != errText(werr) || (gerr == nil && !got.Equal(want)) {
			c.note("s%d: OwnerSet(%s) %v (%v), oracle %v (%v)", st.ID, ref, got, gerr, want, werr)
		}
	}
	return nil
}

func (c *setChecker) note(format string, args ...any) {
	if c.wrong == "" {
		c.wrong = fmt.Sprintf(format, args...)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// nopOracleBackend observes nothing: the oracle walk's value semantics only.
type nopOracleBackend struct{ o *oracle }

func (nopOracleBackend) LoopEntry(*ir.Loop, *spmd.LoopPlan) error { return nil }
func (nopOracleBackend) LoopExit(*ir.Loop, *spmd.LoopPlan) error  { return nil }
func (nopOracleBackend) Redistribute(*ir.Stmt) error              { return nil }

// Statement evaluates what setChecker's does, so both walks fail at the same
// point when a set computation fails.
func (b nopOracleBackend) Statement(st *ir.Stmt, sp *spmd.StmtPlan) error {
	for _, req := range sp.PerInstance {
		if _, err := b.o.InstanceOp(req, sp, 8); err != nil {
			return err
		}
	}
	_, err := b.o.ExecSet(sp)
	return err
}

// oneExpression keeps a fuzz input one expression: no new statements or
// directives.
func oneExpression(e string) bool {
	return len(e) > 0 && len(e) <= 80 && !strings.ContainsFunc(e, func(r rune) bool {
		return !strings.ContainsRune("abcdefghijklmnopqrstuvwxyz0123456789 +-*/(),.<>=", r)
	})
}

// FuzzLowerExpr: for any expression and subscript the front end accepts, the
// lowered form computes the same values, sets and communication decisions as
// the tree-walking oracle, and fails with the same error at the same point.
func FuzzLowerExpr(f *testing.F) {
	for _, seed := range [][2]string{
		{"a(i) + b(i,j) * 0.5", "i"},
		{"b(j, mod(i*k, n) + 1)", "2*i - 1"},
		{"sqrt(abs(x - y)) / (y - y)", "n + 1 - i"},
		{"a(idx(i)) + c(idx(idx(j)))", "idx(i)"},
		{"max(i, j, k) - min(x, y) + exp(0.0)", "(i*4 + 2)/2 - i"},
		{"-b(i, j) * (i < j or not (i == 3 and j >= 2))", "mod(i + j, n) + 1"},
		{"i * 9007199254740993 - i * 9007199254740992", "i * 9007199254740993 - i * 9007199254740992"},
		{"a(i + 1)", "j + 4"},
		{"1.0e300 * 1.0e300 - x", "i * 3000000000 * 3000000000 / 9"},
		{"a(b(i,j))", "c(i) / 2 + 1.6"},
		// Programs nested three deep, each in the registers above the read
		// that evaluates it, and an innermost read out of bounds.
		{"x + a(idx(idx(i))) * y", "idx(idx(i))"},
		{"x + a(idx(idx(i + 1))) * y", "i"},
		{"y * b(idx(j), idx(idx(i))) - x", "idx(idx(7 - j))"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, rhs, sub string) {
		if !oneExpression(rhs) || !oneExpression(sub) {
			return
		}
		ap, err := parser.Parse(fmt.Sprintf(fuzzTemplate, rhs, sub, sub))
		if err != nil {
			return
		}
		res, err := core.BuildAndAnalyze(ap, 4, core.DefaultOptions())
		if err != nil {
			return
		}
		p := spmd.Generate(res)

		ls, err := NewState(p)
		if err != nil {
			t.Fatal(err)
		}
		check := &setChecker{s: ls, o: newOracle(ls)}
		lerr := Walk(ls, check)

		os, err := NewState(p)
		if err != nil {
			t.Fatal(err)
		}
		o := newOracle(os)
		oerr := oracleWalk(o, nopOracleBackend{o})

		if check.wrong != "" {
			t.Fatal(check.wrong)
		}
		if errText(lerr) != errText(oerr) {
			t.Fatalf("lowered walk: %v\noracle walk:  %v", lerr, oerr)
		}
		for slot, want := range os.scalars {
			if got := ls.scalars[slot]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s = %v, oracle %v", os.slots[slot].Name, got, want)
			}
		}
		for slot, want := range os.arrays {
			for i := range want {
				if got := ls.arrays[slot][i]; math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Fatalf("%s[%d] = %v, oracle %v", os.slots[slot].Name, i, got, want[i])
				}
			}
		}
	})
}

// foldTemplate assigns one fuzzed expression to a real and to an integer
// scalar. The expression may read the parameter n, the constants y and m, and
// (in the second statement) the x the first one stored.
const foldTemplate = `
program f
parameter n = 6
real x, y
integer k, m
y = 0.5
m = 3
x = %s
k = %s
end
`

// FuzzFoldMatchesRun holds the compile-time fold (ast.Fold, as constant
// propagation applies it) to the run time it refines: for any expression the
// front end accepts, whenever constprop claims a definition is constant, a
// simulated run leaves exactly that value in the variable — the same float64
// bits, for k after the rounding store.
func FuzzFoldMatchesRun(f *testing.F) {
	for _, seed := range []string{
		"7/2", "2.6", "0 - 7/2", "mod(0 - 7, 2)", "max(1, 2, 3)", "abs(0 - 3)",
		"9007199254740993 - 9007199254740992", "3000000000 * 3000000000 * 3",
		"1.0e300 * 1.0e300", "1/0", "0.0 - 0.0",
		"-0 * m", "mod(0 - 4, 2) + x", "n / 4 * 4 - y", "min(m, n/4, sqrt(4)) - exp(0)", "0.0/0.0 + max(1, 0.0/0.0)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, e string) {
		if !oneExpression(e) {
			return
		}
		src := fmt.Sprintf(foldTemplate, e, e)
		ap, err := parser.Parse(src)
		if err != nil {
			return
		}
		// The claims, over the program as written: the pipeline's own constprop
		// facts are recomputed after induction rewriting and not handed out.
		prog, err := ir.Build(ap)
		if err != nil {
			return
		}
		g, err := ir.BuildCFG(prog)
		if err != nil {
			return
		}
		vals := ssa.Build(prog, g)
		cp := dataflow.PropagateConstants(vals)

		ap, _ = parser.Parse(src) // lowering stamps slots on the tree: a fresh one
		res, err := core.BuildAndAnalyze(ap, 4, core.DefaultOptions())
		if err != nil {
			t.Fatalf("the IR builds but the pipeline fails: %v", err)
		}
		run, err := LoweredSimulate(spmd.Generate(res), core.ReduceAuto)
		if err != nil {
			t.Fatalf("run: %v", err) // straight-line scalar code has nothing to fail on
		}
		for _, st := range prog.Stmts {
			claim, ok := cp.ValueConst(vals.DefOf[st])
			if !ok {
				continue
			}
			name := st.Lhs.Var.Name
			if got := run.Scalars[name]; math.Float64bits(got) != math.Float64bits(claim.Float()) {
				t.Fatalf("%s = %s: constprop claims %+v, the run leaves %v", name, e, claim, got)
			}
		}
	})
}
