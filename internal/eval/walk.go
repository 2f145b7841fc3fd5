// The program walker: structured control flow (loops, block IFs, gotos) and
// value semantics, identical for every backend, plus the resume cursor that
// lets a walk re-enter the tree at a checkpointed loop entry. Backends observe
// the walk at the points where cost is charged or messages flow.
package eval

import (
	"errors"
	"fmt"

	"phpf/internal/dist"
	"phpf/internal/ir"
	"phpf/internal/spmd"
)

// Backend receives the walk's execution events. The walker has already
// updated the State when an event fires except where noted; backends charge
// their cost model or perform real communication, and may abort the walk by
// returning an error. The two execution backends do not implement it: they
// share the one schedule (schedule.go) that does, and implement its Ops.
type Backend interface {
	// LoopEntry fires once per entry of a loop, after the bounds statement
	// and with the loop index set to the lower bound (so affine evaluation
	// of the hoisted communications has a defined base), before any
	// iteration runs. State.Cursor is valid inside it.
	LoopEntry(l *ir.Loop, lp *spmd.LoopPlan) error
	// LoopExit fires after the last iteration (global reduction combines
	// run here). It fires even when the loop had zero iterations.
	LoopExit(l *ir.Loop, lp *spmd.LoopPlan) error
	// Statement fires once per statement instance, before its value
	// semantics: per-instance communication and the computation charge
	// happen here.
	Statement(st *ir.Stmt, sp *spmd.StmtPlan) error
	// Redistribute fires after an executable redistribution has updated
	// the dynamic mapping in the State.
	Redistribute(st *ir.Stmt) error
	// Tick fires after every loop iteration: abort checks (simulated time
	// limits, context cancellation) belong here.
	Tick() error
}

// GotoEscapeError reports a goto whose target label lies outside the
// program.
type GotoEscapeError struct{ Label int }

func (e *GotoEscapeError) Error() string {
	return fmt.Sprintf("goto %d escaped the program", e.Label)
}

var errBadCursor = errors.New("eval: resume cursor does not match the program structure")

// iter is one loop in flight: iteration v of a loop running to hi by step.
type iter struct{ v, hi, step int64 }

// Cursor is a resume point: a loop entry (the only boundary the backends
// checkpoint at) and the iteration each enclosing loop was in. The route to
// the loop through statement lists and IF branches is a static property of
// the tree (loopCode.path), so the cursor does not record it. The zero Cursor
// resumes from the top of the program. Cursors are plain values: safe to copy
// and to keep across the walk that produced them.
type Cursor struct {
	loop *ir.Loop
	// iters[0] is the loop itself, about to start at v; iters[k] is its k-th
	// enclosing loop.
	iters []iter
}

// Cursor returns the current resume point. It exists only while the walk is
// inside a LoopEntry callback; ok is false anywhere else.
func (s *State) Cursor() (Cursor, bool) {
	l := s.entering
	if l == nil {
		return Cursor{}, false
	}
	c := Cursor{loop: l, iters: make([]iter, 0, l.Level)}
	for ; l != nil; l = l.Parent {
		c.iters = append(c.iters, iter{s.indices[l.Index.Slot], s.live[l.ID].hi, s.live[l.ID].step})
	}
	return c, true
}

// Walk interprets the program over s, reporting events to b. It returns the
// first error a callback or the value semantics produce.
func Walk(s *State, b Backend) error { return WalkResume(s, b, nil) }

// WalkResume is Walk from a resume point. When from is a cursor captured by
// an earlier walk over the same program, the walker first seeks to that
// boundary without executing anything — no statement semantics, no backend
// events, no bounds evaluation — then re-fires the target loop's LoopEntry
// and runs normally from its recorded bounds. The caller must have restored
// s to the matching checkpoint snapshot.
func WalkResume(s *State, b Backend, from *Cursor) error {
	w := &walker{s: s, b: b, c: s.lowered()}
	if w.sched, _ = b.(*schedule); w.sched != nil && s.proc >= 0 {
		w.shrinks = s.Prog.ShrinkableLoops()
	}
	if from != nil && from.loop != nil {
		l, loops := from.loop, s.Prog.Res.Prog.Loops
		if l.ID < 0 || l.ID >= len(loops) || loops[l.ID] != l ||
			len(from.iters) != l.Level || w.c.loops[l.ID].plan == nil {
			return errBadCursor
		}
		w.seek, w.path = from, w.c.loops[l.ID].path
	}
	ctl, err := w.nodes(s.Prog.Res.Prog.Body)
	if err != nil {
		return err
	}
	if ctl.kind == ctlGoto {
		return &GotoEscapeError{Label: ctl.label}
	}
	return nil
}

type ctlKind int

const (
	ctlNormal ctlKind = iota
	ctlGoto
)

type control struct {
	kind  ctlKind
	label int
}

type walker struct {
	s *State
	b Backend
	c *code // the program's lowered form

	// sched is b when b is the schedule, which resolves an owner run as it
	// opens; quiet is then the run's charge list, nil when the run is loud —
	// and for any other Backend, which is shown every instance.
	sched *schedule
	quiet []Charge
	// skip: the quiet owner run in flight excludes the State's processor.
	skip bool
	// taken is the outcome of the block IF predicate just run, left whether
	// the State leaves that IF aside (State.aside).
	taken, left bool
	// shrinks is the plan's shrunk loops, for a State bound to a processor.
	shrinks []*spmd.ShrinkInfo

	// seek is the cursor being navigated to (nil once reached, and on a walk
	// from the top); path is what is left of its loop's static route.
	seek *Cursor
	path []int32
}

// step consumes the next element of the seek route. WalkResume accepted the
// cursor only for a loop of this tree, whose route the tree itself defines,
// so the route ends exactly where the seek does.
func (w *walker) step() int {
	i := int(w.path[0])
	w.path = w.path[1:]
	return i
}

// nodes interprets one statement list — from its start, or while seeking from
// the position the route names, skipping the prefix that ran before the
// checkpoint.
func (w *walker) nodes(nodes []ir.Node) (control, error) {
	i := 0
	if w.seek != nil {
		i = w.step()
	}
	for ; i < len(nodes); i++ {
		ctl, err := w.node(nodes[i])
		if err != nil {
			return control{}, err
		}
		if ctl.kind == ctlGoto {
			// Look for the labeled CONTINUE later in this sequence.
			target := -1
			for j := range nodes {
				if st, ok := nodes[j].(*ir.Stmt); ok && st.Kind == ir.SContinue && st.Label == ctl.label {
					target = j
					break
				}
			}
			if target < 0 {
				return ctl, nil // propagate upward
			}
			i = target // resume at the label
			continue
		}
	}
	return control{}, nil
}

func (w *walker) node(n ir.Node) (control, error) {
	switch x := n.(type) {
	case *ir.Stmt:
		return w.stmt(x)
	case *ir.If:
		return w.ifNode(x)
	case *ir.Loop:
		return w.loop(x)
	}
	return control{}, nil
}

func (w *walker) loop(l *ir.Loop) (control, error) {
	s := w.s
	lc := &w.c.loops[l.ID]
	var lo, hi, step int64
	if c := w.seek; c != nil {
		// A loop on the seek route: an enclosing loop re-enters its recorded
		// iteration mid-flight (its LoopEntry fired before the checkpoint);
		// the cursor's own loop ends the seek and starts over from its
		// recorded bounds, which are not evaluated (and charged) again.
		d := c.loop.Level - l.Level
		lo, hi, step = c.iters[d].v, c.iters[d].hi, c.iters[d].step
		if d > 0 {
			return w.iterate(l, lc.plan, lo, hi, step)
		}
		w.seek = nil
	} else {
		if l.BoundsStmt != nil {
			if _, err := w.stmt(l.BoundsStmt); err != nil {
				return control{}, err
			}
		}
		var ok bool
		if lo, hi, step, ok = lc.bounds(s); !ok {
			return control{}, s.takeErr()
		}
		if step == 0 {
			return control{}, fmt.Errorf("zero loop step at line %d", l.Line)
		}
	}

	if lp := lc.plan; lp != nil {
		// The loop index ranges over the whole iteration space for the
		// purpose of any aggregated transfer; set it to lo so affine
		// evaluation has a defined base.
		s.indices[l.Index.Slot] = lo
		// A checkpoint cursor may be captured inside this callback.
		s.live[l.ID] = iter{hi: hi, step: step}
		s.entering = l
		err := w.b.LoopEntry(l, lp)
		s.entering = nil
		if err != nil {
			return control{}, err
		}
	}
	return w.iterate(l, lc.plan, lo, hi, step)
}

// iterate runs the loop body over [lo,hi]/step and fires LoopExit. A loop
// whose body is a flat list of assignments with affine set computations is
// run as owner runs (beginRun); any other loop, and any iteration no run
// could be opened for, goes through the general statement walk, one
// statement instance — a run of length one — at a time. A State bound to a
// processor walks only its own iterations of a shrunk loop (shrink).
func (w *walker) iterate(l *ir.Loop, lp *spmd.LoopPlan, lo, hi, step int64) (control, error) {
	s := w.s
	s.live[l.ID] = iter{hi: hi, step: step} // for cursors captured inside the body
	lc := &w.c.loops[l.ID]
	slot := l.Index.Slot
	runs := lc.lim > 0 && w.seek == nil && s.exactOver(l, lo, hi, step, lc.lim)
	var o own
	shrunk := w.shrinks != nil && w.seek == nil && (w.shrinks[l.ID] != nil || lc.allOrNone && !s.keepers.Contains(s.proc)) &&
		w.shrink(l, lc, lo, hi, step, &o)
	// single counts the iterations in a row no run took. As many as the body
	// has set computations can be what a block boundary looks like, each set
	// moving on at an iteration of its own; more are sets that move with every
	// iteration (a CYCLIC axis under the loop index, say), and asking at each
	// would only add to what it costs — so from there on a run is asked for
	// where the count is a power of two: O(log n) times if none ever opens,
	// at once again after one did.
	for v, single := lo, 0; (step > 0 && v <= hi) || (step < 0 && v >= hi); {
		left := int64(0) // the iterations left to walk in a row (0: to hi)
		if shrunk {
			t := (v - lo) / step
			u, k := o.next(t)
			s.epoch += (u - t) * o.span // as the walk would, so write stamps agree
			o.skipped += u - t
			if v += (u - t) * step; k == 0 {
				break
			}
			left = k
		}
		s.indices[slot] = v
		s.epoch++
		if runs && left != 1 && (single < lc.nsets || single&(single-1) == 0) {
			if left == 0 {
				left = (hi-v)/step + 1
			}
			if n := w.beginRun(lc, slot, step, left); n > 0 {
				err := w.run(lc, slot, step, n)
				s.endRun()
				if err != nil {
					return control{}, err
				}
				v, single = v+n*step, 0
				continue
			}
		}
		single++
		ctl, err := w.nodes(l.Body)
		if err != nil {
			return control{}, err
		}
		if ctl.kind == ctlGoto {
			return ctl, nil // escaping goto terminates the loop
		}
		if err := w.b.Tick(); err != nil {
			return control{}, err
		}
		v += step
	}
	if shrunk { // the index as the walk leaves it; the skipped iterations' ticks
		if o.n > 0 {
			s.indices[slot] = lo + (o.n-1)*step
		}
		s.shrunk.Walked, s.shrunk.Skipped = s.shrunk.Walked+o.n-o.skipped, s.shrunk.Skipped+o.skipped
		if o.skipped > 0 {
			if _, err := w.sched.iterations(nil, o.skipped*o.span); err != nil {
				return control{}, err
			}
		}
	}

	if lp != nil {
		if err := w.b.LoopExit(l, lp); err != nil {
			return control{}, err
		}
	}
	return control{}, nil
}

// own is the part of a shrunk loop's iterations, numbered 0..n-1, that a
// State walks (walker.shrink): the c iterations t0, t0+m, …, and the last one
// when tail is set. span is what an iteration adds to the epoch and the
// ticks, loops nested in it included; skipped counts the ones passed over.
type own struct {
	t0, m, c, n, span, skipped int64
	tail                       bool
}

// next returns the first iteration at or after t the State walks, and how
// many it walks in a row from there (0: none, and the iteration is n).
func (o *own) next(t int64) (u, k int64) {
	if last := o.t0 + (o.c-1)*o.m; o.c > 0 && t <= last {
		if u = o.t0 + max(0, (t-o.t0+o.m-1)/o.m*o.m); o.m > 1 {
			return u, 1
		}
		return u, last - u + 1
	}
	if o.tail && t < o.n {
		return o.n - 1, 1
	}
	return o.n, 0
}

// shrink settles into o, at an entry of a shrunk loop, which iterations the
// State walks: those LocalRange gives its processor, by the shrinking rule
// every one that involves it, so it issues every operation it takes part in
// in the walk's order. It reports false, walking them all, where the State
// keeps the account (which charges every instance) or the nested iterations
// cannot be counted. The last iteration is walked too where it leaves what
// the State must hold: the holders of a scalar the body writes and, if it
// walks no other, the nested loops' indices (which every iteration leaves
// alike). A loop of IFs (spmd.Program.AllOrNoneLoops) is walked all or none,
// none where the State leaves them aside at the first iteration.
func (w *walker) shrink(l *ir.Loop, lc *loopCode, lo, hi, step int64, o *own) bool {
	s, info := w.s, w.shrinks[l.ID]
	n := int64(0)
	if step > 0 && lo <= hi || step < 0 && lo >= hi {
		n = (hi-lo)/step + 1
	}
	span, ok := int64(0), !s.keepers.Contains(s.proc)
	if ok {
		span, ok = w.span(l.Body)
	}
	if !ok {
		s.shrunk.Walked += n
		return false
	}
	*o = own{n: n, span: 1 + span}
	if info == nil {
		o.m, o.c = 1, n
		s.indices[l.Index.Slot] = lo
		for i := 0; i < len(l.Body) && n > 0; i++ {
			sc := &w.c.stmts[l.Body[i].(*ir.If).Cond.ID]
			set, err := s.ExecSet(sc.plan)
			if err != nil {
				return true // walked: the walk meets the error again
			}
			if _, me := s.aside(sc, set); !me {
				return true
			}
		}
		o.c = 0
		return true
	}
	d, coord := info.GridDim, s.proc
	for k := len(s.grid.Shape) - 1; k > d; k-- {
		coord /= s.grid.Shape[k]
	}
	o.t0, o.m, o.c = info.LocalRange(coord%s.grid.Shape[d], s.grid.Shape[d], lo, step, n)
	if shrinkSeam != nil {
		o.t0, o.c = shrinkSeam(s.proc, l, o.t0, o.m, o.c, n)
	}
	o.tail = info.WritesScalar || o.c == 0
	return true
}

// shrinkSeam, nil outside tests, changes the iterations t0, t0+m, … (c of n)
// a State bound to processor proc walks of an entry of loop l.
var shrinkSeam func(proc int, l *ir.Loop, t0, m, c, n int64) (int64, int64)

// span returns the epochs a pass over nodes adds, one per iteration of every
// loop in it at any depth, from the bounds at the current indices; ok is
// false where one cannot be evaluated or steps by 0, which the walk reports.
func (w *walker) span(nodes []ir.Node) (e int64, ok bool) {
	s := w.s
	for _, n := range nodes {
		l, isLoop := n.(*ir.Loop)
		if !isLoop {
			continue
		}
		lo, hi, step, ok := w.c.loops[l.ID].bounds(s)
		if s.err = nil; !ok || step == 0 {
			return 0, false
		}
		slot, v := l.Index.Slot, s.indices[l.Index.Slot]
		for x := lo; (step > 0 && x <= hi) || (step < 0 && x >= hi); x += step {
			s.indices[slot] = x
			k, ok := w.span(l.Body)
			if e += 1 + k; !ok {
				s.indices[slot] = v
				return 0, false
			}
		}
		s.indices[slot] = v
	}
	return e, true
}

// exactOver reports whether the indices l's body can read — l's own over the
// whole loop, the enclosing loops' as they stand — and its step lie within
// lim, the range over which the body's affine forms are exact.
func (s *State) exactOver(l *ir.Loop, lo, hi, step, lim int64) bool {
	within := func(x int64) bool { return uint64(x+lim) <= uint64(2*lim) }
	ok := within(lo) && within(hi) && within(step)
	for p := l.Parent; p != nil && ok; p = p.Parent {
		ok = within(s.indices[p.Index.Slot])
	}
	return ok
}

// beginRun opens an owner run at the current iteration of the loop lc lowers
// (index in slot, advancing by step, left iterations to go) and returns its
// length; 0 when there is none to open — the stretch is a single iteration,
// which the general walk runs as cheaply — or none can be, and the iteration
// must take the general walk.
//
// The run is the longest stretch of iterations over which every set
// computation of the body's statements stays what it is now, so the set
// table filled during its first iteration serves them all. The partition
// decides only how long, never what: the sets come from the same evaluators
// as on the general walk. The affine array accesses of the body are then
// evaluated, guards and all, at the run's first iteration, and each
// subscript's value at the last follows from the coefficient lowering recorded
// (arrCode.open): in bounds at both ends is in bounds throughout, and the run
// keeps their offsets (State.offs) instead of evaluating subscripts — unless
// one is out of bounds, when the iteration takes the general walk, which fails
// where and how it always did.
// The schedule fills the table by resolving what the run's instances issue
// (schedule.resolve), and a quiet run's iterations are charged from the list.
func (w *walker) beginRun(lc *loopCode, slot int32, step, left int64) int64 {
	s := w.s
	n := left
	stmts := w.c.stmts[lc.body.lo : lc.body.lo+lc.body.n]
	for i := range stmts {
		stmts[i].sets(w.c, func(set runSet) { n = set.run(s, slot, step, n) })
		if n < 2 {
			return 0
		}
	}
	s.newStamp()
	s.run = stmts[0].runs
	ok := true
	if w.sched != nil {
		w.quiet, ok = w.sched.resolve(stmts)
	} else {
		for i := 0; i < len(stmts) && ok; i++ {
			_, err := s.ExecSet(stmts[i].plan)
			ok = err == nil
		}
	}
	if !ok {
		s.endRun()
		return 0
	}
	if w.skip = s.proc >= 0 && w.quiet != nil && !s.runFor(stmts); w.skip {
		return n // nothing here reads an offset
	}

	arrs := w.c.arrs[lc.arrs.lo : lc.arrs.lo+lc.arrs.n]
	offs, steps := s.offs[lc.arrs.lo:], s.steps[lc.arrs.lo:]
	for k, ac := range arrs {
		if offs[k], steps[k], ok = ac.open(s, w.c.coefs[ac.coefs:], step, (n-1)*step); !ok {
			s.err = nil
			s.endRun()
			return 0
		}
	}
	s.hoist = lc.arrs
	return n
}

// run executes the n iterations of the owner run beginRun opened, the first
// of which iterate has set up: the same events and value semantics in the
// same order as the general walk's, with the statements taken straight from
// the lowered body. An iteration of a quiet run is its value semantics, then
// its charges and its tick (schedule.iterations): nothing between them reads what
// the other writes, so only a value error could tell the order, and it is
// given what the general walk had charged when it met the error. A quiet run
// of a loop with a run kernel is closed a strip of iterations at a time, its
// value semantics run by the kernel (sweep.go): swept, statement by statement
// over the strip, where its addresses allow it (sweepable), and iteration by
// iteration where they do not.
func (w *walker) run(lc *loopCode, slot int32, step, n int64) error {
	s := w.s
	stmts := w.c.stmts[lc.body.lo : lc.body.lo+lc.body.n]
	if w.skip {
		// A quiet run that excludes this State's processor: its charges, and
		// the index and epoch where the run leaves them.
		_, err := w.sched.iterations(w.quiet, n)
		s.indices[slot] += (n - 1) * step
		s.epoch += n - 1
		return err
	}
	if w.quiet != nil && lc.kern != nil {
		if s.swept = -1; s.sweepable(w.c.kpairs[lc.pairs.lo:lc.pairs.lo+lc.pairs.n], n) {
			s.swept = 1
		}
		return w.sweep(lc.kern, slot, step, n, int64(len(stmts)))
	}
	for {
		var err error
		if w.quiet != nil {
			for i := range stmts {
				if err := w.value(&stmts[i]); err != nil {
					for k := 0; k <= i; k++ { // from the set table: cannot fail
						_ = w.b.Statement(stmts[k].plan.Stmt, stmts[k].plan)
					}
					return err
				}
			}
			_, err = w.sched.iterations(w.quiet, 1)
		} else {
			for i := range stmts {
				if err := w.assign(&stmts[i]); err != nil {
					return err
				}
			}
			err = w.b.Tick()
		}
		if err != nil {
			return err
		}
		if n--; n == 0 {
			return nil
		}
		s.advance(slot, step, 1)
	}
}

func (w *walker) ifNode(ifn *ir.If) (control, error) {
	if w.seek != nil {
		// The predicate ran before the checkpoint; take the recorded branch.
		if w.step() == 0 {
			return w.nodes(ifn.Then)
		}
		return w.nodes(ifn.Else)
	}
	if _, err := w.stmt(ifn.Cond); err != nil {
		return control{}, err
	}
	switch {
	case w.left:
		return control{}, nil
	case w.taken:
		return w.nodes(ifn.Then)
	}
	return w.nodes(ifn.Else)
}

// outcome evaluates the predicate of a block IF or conditional goto. The
// simulator's State evaluates every one. A State bound to a processor
// evaluates it where the predicate's execution set holds the processor — the
// plan brings those processors what it reads — and otherwise leaves the IF
// aside (left; State.aside) or learns the outcome from them
// (schedule.outcome), so every State that walks the IF walks the branch every
// other one walks.
func (w *walker) outcome(st *ir.Stmt) (taken, left bool, err error) {
	s := w.s
	sc := &w.c.stmts[st.ID]
	if s.proc < 0 || w.sched == nil {
		c := s.pass(sc.cond)
		return c != 0, false, s.takeErr()
	}
	set, err := s.ExecSet(sc.plan)
	if err != nil {
		return false, false, err
	}
	if set.Contains(s.proc) {
		c := s.pass(sc.cond)
		if err := s.takeErr(); err != nil {
			return false, false, err
		}
		if taken = c != 0; set.Count() == s.grid.Size() {
			return taken, false, nil
		}
	}
	others, me := s.aside(sc, set)
	if me {
		return false, true, nil
	}
	taken, err = w.sched.outcome(st, set, taken, others)
	return taken, false, err
}

// aside is the one decision to leave a block IF aside (the paper's privatized
// control flow, §4), made alike by every bound State at the IF whose predicate
// is sc, of execution set set: whether the States outside set that keep no
// account leave it aside (others, which those in set, the senders of the
// outcome, and those that may leave it aside report), and whether this one
// does (me). They do where the plan lets them (spmd.Program.SkippableIfs),
// each accumulator the predicate reads is held where it runs and each scalar
// the branches assign is held by exactly its assignment's set, so walking
// would change no record and fire no hand-off.
func (s *State) aside(sc *stmtCode, set dist.ProcSet) (others, me bool) {
	in, ifn := set.Contains(s.proc), sc.plan.Stmt.IfNode
	others = sc.asideOK && (in || !s.keepers.Contains(s.proc))
	for _, v := range s.code.reads[sc.plan.Stmt.ID] {
		others = others && s.held[v.Slot].CoversSet(set)
	}
	for _, branch := range [2][]ir.Node{ifn.Then, ifn.Else} {
		for i := 0; i < len(branch) && others; i++ {
			if b := &s.code.stmts[branch[i].(*ir.Stmt).ID]; b.def == nil { // a scalar's
				def, err := s.ExecSet(b.plan)
				others = err == nil && def.Equal(s.held[b.slot])
			}
		}
	}
	me = others && !in && !s.keepers.Contains(s.proc)
	if asideSeam != nil {
		me = asideSeam(s.proc, sc.plan.Stmt, set, me)
	}
	return others, me
}

// asideSeam, nil outside tests, changes whether the State bound to processor
// proc leaves aside the IF whose predicate is st, of execution set set (me:
// whether it would).
var asideSeam func(proc int, st *ir.Stmt, set dist.ProcSet, me bool) bool

// stmt runs one statement instance on the general walk, a run of length one:
// it reports the statement to the backend (communication and computation
// charges), then computes its value semantics, and the sets evaluated on the
// way are kept for the instance (State.newStamp).
func (w *walker) stmt(st *ir.Stmt) (ctl control, err error) {
	s := w.s
	sc := &w.c.stmts[st.ID]
	s.newStamp()
	if st.Kind == ir.SAssign {
		err = w.assign(sc)
	} else if err = w.b.Statement(st, sc.plan); err == nil {
		switch st.Kind {
		case ir.SIfGoto:
			var taken bool
			if taken, _, err = w.outcome(st); err == nil && taken {
				ctl = control{kind: ctlGoto, label: st.Label}
			}
		case ir.SGoto:
			ctl = control{kind: ctlGoto, label: st.Label}
		case ir.SRedistribute:
			if err = s.ApplyRedistribute(st); err == nil {
				err = w.b.Redistribute(st)
			}
		case ir.SIf:
			// The outcome ifNode takes, resolved with the instance's sets.
			w.taken, w.left, err = w.outcome(st)
		case ir.SContinue, ir.SLoopBounds:
			// No value semantics here.
		}
	}
	s.stamp = 0
	return ctl, err
}

// assign runs one assignment instance: the backend's event, then the value
// semantics.
func (w *walker) assign(sc *stmtCode) error {
	if err := w.b.Statement(sc.plan.Stmt, sc.plan); err != nil {
		return err
	}
	return w.value(sc)
}

// value runs the value semantics of one assignment instance, where the
// State computes it.
func (w *walker) value(sc *stmtCode) error {
	s := w.s
	if s.proc >= 0 && !s.computes(sc) {
		s.record(sc, false)
		return nil
	}
	s.computed++
	if c := sc.plan.Combine; sc.red != nil && s.PrivatizedActive(c) {
		// A privatized reduction update accumulates into the partial
		// tables; the real accumulator is only written by the loop-exit
		// merge.
		sc.red.accumulate(s, c)
	} else {
		sc.assign(s)
	}
	err := s.takeErr()
	if s.proc >= 0 {
		s.record(sc, true)
	}
	return err
}

// computes reports whether the State runs the value semantics of the
// instance of sc in hand, whose sets the schedule has resolved: always on the
// simulator's State; on one bound to a processor, where the instance's
// execution set holds it — for a privatized reduction update, where the
// partial row it accumulates into is the processor's — or for an assignment
// every processor computes.
func (s *State) computes(sc *stmtCode) bool {
	switch {
	case s.proc < 0 || sc.everywhere:
		return true
	case sc.red != nil && s.PrivatizedActive(sc.plan.Combine):
		p, ok := sc.red.row(s)
		s.err = nil // (the accumulation meets it again)
		return !ok || p == s.proc
	}
	set, err := s.ExecSet(sc.plan)
	return err != nil || set.Contains(s.proc)
}

// record notes one write of sc's instance in hand, computed here (ran) or
// not: who holds a scalar now, and the stamp of an element of an array
// written outside the owner rule that this State wrote.
func (s *State) record(sc *stmtCode, ran bool) {
	switch {
	case sc.red != nil && s.PrivatizedActive(sc.plan.Combine):
	case sc.def == nil && sc.everywhere:
		s.held[sc.slot] = dist.AllProcs(s.grid)
	case sc.def == nil:
		s.held[sc.slot], _ = s.ExecSet(sc.plan)
	case ran && s.wrote[sc.slot] != nil:
		if off, ok := sc.def.offset(s); ok {
			s.wrote[sc.slot][off] = stampOf(s.epoch, sc.plan.Stmt.ID)
		}
		s.err = nil
	}
}

// stampOf orders the writes of a walk: by epoch — every loop iteration has
// one, the same on every State — then by statement, in program order within
// an iteration.
func stampOf(epoch int64, stmt int) int64 { return epoch<<20 | int64(stmt) + 1 }

// runFor notes, for the quiet owner run just opened, which of its statements
// the State computes (member) and who holds each scalar they write, and
// reports whether it computes any. A loud run's instances record their own,
// each after the hand-off it issues (schedule.handOff).
func (s *State) runFor(stmts []stmtCode) (any bool) {
	for i := range stmts {
		m := s.computes(&stmts[i])
		s.member[stmts[i].plan.Stmt.ID], any = m, any || m
		s.record(&stmts[i], false)
	}
	return any
}
