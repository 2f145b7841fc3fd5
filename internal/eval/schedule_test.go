package eval

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"phpf/internal/comm"
	"phpf/internal/core"
	"phpf/internal/dist"
	"phpf/internal/ir"
	"phpf/internal/programs"
	"phpf/internal/spmd"
)

// opRecorder records the schedule: one line per operation — a site of the
// backend's, or, through the charge seam, a charge — naming the statement by
// source line. It holds every processor's values, so it moves nothing.
type opRecorder struct {
	Unbound
	st  *State // the image the run interprets (set by record)
	ops []string
	// onCompute, when set, sees every statement instance's execution set.
	onCompute func(st *ir.Stmt, set dist.ProcSet)
}

func (r *opRecorder) add(format string, args ...any) error {
	r.ops = append(r.ops, fmt.Sprintf(format, args...))
	return nil
}

func (r *opRecorder) CrashSite() error { return r.add("crash-site") }
func (r *opRecorder) Tick() error      { return r.add("tick") }

// charge records what the schedule charges (the charge seam).
func (r *opRecorder) charge(method string, args ...any) {
	switch method {
	case "Checkpoint":
		r.add("checkpoint-site")
	case "Vectorized":
		req, op := args[0].(*comm.Requirement), args[1].(VectorizedOp)
		kind := map[VecKind]string{VecShift: "shift", VecBcast: "bcast", VecExchange: "exchange"}[op.Kind]
		r.add("%s %s for L%d", kind, req.Use.Var.Name, req.Stmt.Line)
	case "Charge":
		r.charged(args[0].(Charge))
	case "Charges":
		// A strip reads as the charges it stands for, n times over.
		for n := args[1].(int64); n > 0; n-- {
			for _, c := range args[0].([]Charge) {
				r.charged(c)
			}
		}
	case "Reduce":
		r.add("reduce %s", args[0].(*core.ScalarMapping).Def.Var.Name)
	case "TreeMerge":
		c := args[0].(*spmd.Combine)
		r.add("tree-merge %s (%d elems, %d hops)", c.Var().Name, args[1].(int64), r.st.Prog.NProcs()-1)
	case "CopyOut":
		r.add("copy-out %s from p%d", args[0].(*core.ScalarMapping).Def.Var.Name, args[1].(int))
	case "AllToAll":
		r.add("all-to-all %s", args[0].(*ir.Stmt).Redist.Array.Name)
	}
}

// charged records an instance's guard, transfer or compute.
func (r *opRecorder) charged(c Charge) {
	switch {
	case c.Req == nil:
		r.compute(c.Stmt, c.Set, c.Flops)
	case c.From < 0:
		r.add("guard %s for L%d", c.Req.Use.Var.Name, c.Stmt.Line)
	default:
		r.add("transfer %s for L%d", c.Req.Use.Var.Name, c.Stmt.Line)
	}
}

func (r *opRecorder) compute(st *ir.Stmt, set dist.ProcSet, flops int) {
	if flops == 0 {
		return // bookkeeping statements (CONTINUE, bounds, predicates) say nothing
	}
	r.add("compute L%d", st.Line)
	if r.onCompute != nil {
		r.onCompute(st, set)
	}
}

// watch has r see the charges of the walks that follow, until the returned
// call.
func (r *opRecorder) watch() (unwatch func()) {
	chargeSeam = r.charge
	return func() { chargeSeam = nil }
}

// record runs p on the schedule with a recording fake, every quiet iteration
// closed on its own, and checks what holds of every schedule: a crash site
// follows each communication that took place — hoisted, per instance, or a
// redistribution — and nothing else.
func record(t *testing.T, p *spmd.Program, reduce core.ReduceMode, r *opRecorder) []string {
	t.Helper()
	st, err := RunOptions{Reduce: reduce}.NewState(p)
	if err != nil {
		t.Fatal(err)
	}
	r.st = st
	defer r.watch()()
	if err := Run(st, r, Meter{EachTick: true}, 8, nil); err != nil {
		t.Fatal(err)
	}
	moved := func(op string) bool {
		for _, kind := range []string{"shift ", "bcast ", "exchange ", "transfer ", "all-to-all "} {
			if strings.HasPrefix(op, kind) {
				return true
			}
		}
		return false
	}
	for i, op := range r.ops {
		if moved(op) && (i+1 == len(r.ops) || r.ops[i+1] != "crash-site") {
			t.Errorf("op %d %q is not followed by a crash site", i, op)
		}
		if op == "crash-site" && (i == 0 || !moved(r.ops[i-1])) {
			t.Errorf("op %d is a crash site after %q", i, r.ops[i-1])
		}
	}
	return r.ops
}

func expect(t *testing.T, what, got, want string) {
	t.Helper()
	if got != strings.TrimLeft(want, "\n") {
		t.Errorf("%s:\n%s\nwant:\n%s", what, got, want)
	}
}

// fold renders the sequence with repetition collapsed: a block of up to
// eight lines that repeats back to back becomes "(a; b) ×n", and the folded
// lines are folded again until nothing repeats, so a loop nest reads as a
// nest.
func fold(ops []string) string {
	for {
		var out []string
		for i := 0; i < len(ops); {
			period, times := 1, 1
			for p := 1; p <= 8 && i+2*p <= len(ops) && times == 1; p++ {
				n := 1
				for i+(n+1)*p <= len(ops) && slices.Equal(ops[i:i+p], ops[i+n*p:i+(n+1)*p]) {
					n++
				}
				if n > 1 {
					period, times = p, n
				}
			}
			if times == 1 {
				out = append(out, ops[i])
				i++
				continue
			}
			block := strings.Join(ops[i:i+period], "; ")
			if period > 1 {
				block = "(" + block + ")"
			}
			out = append(out, fmt.Sprintf("%s ×%d", block, times))
			i += period * times
		}
		if len(out) == len(ops) {
			return strings.Join(out, "\n") + "\n"
		}
		ops = out
	}
}

// tally renders the distinct operations in order of first occurrence, with
// how often each happened: which operations a run has, how many, and which
// kind comes first — short enough to pin for a whole kernel.
func tally(ops []string) string {
	count := map[string]int{}
	var order []string
	for _, op := range ops {
		if count[op] == 0 {
			order = append(order, op)
		}
		count[op]++
	}
	var b strings.Builder
	for _, op := range order {
		fmt.Fprintf(&b, "%s ×%d\n", op, count[op])
	}
	return b.String()
}

// TestScheduleFigure1: the paper's §2.1 example at P=4. The two operands of
// the consumer-aligned x arrive by hoisted shifts, once, before the loop; the
// producer-aligned y pays the guard in each of the 98 iterations and moves
// only across the three block boundaries.
func TestScheduleFigure1(t *testing.T) {
	ops := record(t, compile(t, programs.Figures["figure1"], 4), core.ReduceAuto, &opRecorder{})
	expect(t, "operations", tally(ops), `
compute L10 ×1
checkpoint-site ×1
shift b for L13 ×1
crash-site ×5
shift c for L13 ×1
compute L12 ×98
compute L13 ×98
compute L14 ×98
compute L15 ×98
guard y for L16 ×98
compute L16 ×98
compute L17 ×98
tick ×98
transfer y for L16 ×3
`)
	expect(t, "loop entry", fold(ops[:6]), `
compute L10
checkpoint-site
shift b for L13
crash-site
shift c for L13
crash-site
`)
}

// TestScheduleHistogram: a privatized elementwise reduction at P=4. The
// update h(key(i)) += 1 consumes its operand where it lives: no hoisted
// transfer, no per-instance traffic, the compute charge on the owner of
// key(i), one tree merge when the carrier loop exits. Run collectively, the
// same program routes every instance to the bin's owner.
func TestScheduleHistogram(t *testing.T) {
	p := compile(t, programs.Histogram(32, 8, 2), 4)
	r := &opRecorder{}
	r.onCompute = func(stmt *ir.Stmt, set dist.ProcSet) {
		if stmt.Line != 16 {
			return
		}
		i := r.st.Index(p.Res.Prog.LookupVar("i"))
		if owner, single := set.IsSingle(); !single || int64(owner) != (i-1)/8 {
			t.Errorf("update instance i=%d computes on %v, want the owner of key(i), p%d", i, set.Procs(), (i-1)/8)
		}
	}
	expect(t, "privatized", tally(record(t, p, core.ReduceAuto, r)), `
checkpoint-site ×2
compute L12 ×32
tick ×98
compute L16 ×64
tree-merge h (8 elems, 3 hops) ×1
`)
	expect(t, "collective", tally(record(t, p, core.ReduceCollective, &opRecorder{})), `
checkpoint-site ×2
compute L12 ×32
tick ×98
guard key for L16 ×128
transfer key for L16 ×96
crash-site ×96
guard h for L16 ×64
compute L16 ×64
`)
}

// hoistedEntries counts, ahead of the schedule, every hoisted requirement of
// every loop entry.
type hoistedEntries struct {
	*schedule
	n int
}

func (h *hoistedEntries) LoopEntry(l *ir.Loop, lp *spmd.LoopPlan) error {
	h.n += len(lp.Hoisted)
	return h.schedule.LoopEntry(l, lp)
}

// TestScheduleAPPSP2D: hoisted shifts that do not cross a processor boundary
// at a given loop entry are skipped, and a skipped requirement is not a crash
// site — the concurrent backend once checked there and so detected a pending
// crash one operation ahead of the simulator.
func TestScheduleAPPSP2D(t *testing.T) {
	p := compile(t, programs.APPSP(6, 6, 6, 1, true), 4)
	st, err := RunOptions{}.NewState(p)
	if err != nil {
		t.Fatal(err)
	}
	r := &opRecorder{}
	h := &hoistedEntries{schedule: &schedule{st: st, ops: r, elem: 8}}
	unwatch := r.watch()
	err = Walk(st, h)
	if unwatch(); err != nil {
		t.Fatal(err)
	}
	sites, moved := 0, 0
	for _, op := range r.ops {
		switch {
		case op == "crash-site":
			sites++
		case strings.HasPrefix(op, "shift "):
			moved++
		}
	}
	if moved >= h.n {
		t.Fatalf("%d of %d hoisted requirements took place: the kernel no longer has a skipped one", moved, h.n)
	}
	if sites != moved {
		t.Errorf("%d crash sites for %d communications that took place (%d hoisted)", sites, moved, h.n)
	}
	expect(t, "operations", tally(record(t, p, core.ReduceAuto, &opRecorder{})), `
checkpoint-site ×18
compute L14 ×216
compute L15 ×216
compute L16 ×216
compute L17 ×216
tick ×470
shift v for L27 ×1
crash-site ×15
compute L26 ×48
compute L27 ×48
compute L28 ×48
compute L29 ×48
shift rsd for L26 ×4
shift rsd for L28 ×4
shift c for L29 ×4
compute L36 ×64
compute L37 ×64
compute L45 ×48
compute L46 ×48
shift v for L45 ×1
shift v for L46 ×1
`)
}

// TestScheduleLastprivate: at the exit of a loop that carries both a
// reduction and a lastprivate scalar, the combine comes first and the
// copy-out from the final iteration's owner second.
func TestScheduleLastprivate(t *testing.T) {
	ops := record(t, compile(t, `
program t
parameter n = 8
real a(n), b(n)
real x, s
integer i, k
!hpf$ distribute (block) :: a, b
s = 0.0
do i = 1, n
  x = a(i) * 2.0
  b(i) = x + 1.0
  s = s + a(i)
end do
do k = 1, n
  b(k) = b(k) + x + s
end do
end
`, 4), core.ReduceAuto, &opRecorder{})
	expect(t, "operations", fold(ops), `
compute L8
checkpoint-site
(compute L10; compute L11; compute L12; tick) ×8
tree-merge s (1 elems, 3 hops)
copy-out x from p3
checkpoint-site
(compute L15; tick) ×8
`)
}

// TestScheduleRedistribute: an executable redistribution is a boundary, an
// all-to-all and a crash site, between the loops around it.
func TestScheduleRedistribute(t *testing.T) {
	ops := record(t, compile(t, `
program t
parameter n = 8
real a(n)
integer i
!hpf$ distribute (block) :: a
do i = 1, n
  a(i) = 1.0
end do
!hpf$ redistribute a(cyclic)
do i = 1, n
  a(i) = a(i) + 1.0
end do
end
`, 4), core.ReduceAuto, &opRecorder{})
	expect(t, "operations", fold(ops), `
checkpoint-site
(compute L8; tick) ×8
all-to-all a
crash-site
checkpoint-site
(compute L12; tick) ×8
`)
}
