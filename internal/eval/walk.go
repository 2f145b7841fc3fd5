// The program walker: structured control flow (loops, block IFs, gotos) and
// value semantics, identical for every backend, plus the resume cursor that
// lets a walk re-enter the tree at a checkpointed loop entry. Backends observe
// the walk at the points where cost is charged or messages flow.
package eval

import (
	"errors"
	"fmt"

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

// iterate runs the loop body over [lo,hi]/step and fires LoopExit.
func (w *walker) iterate(l *ir.Loop, lp *spmd.LoopPlan, lo, hi, step int64) (control, error) {
	s := w.s
	s.live[l.ID] = iter{hi: hi, step: step} // for cursors captured inside the body
	for v := lo; (step > 0 && v <= hi) || (step < 0 && v >= hi); v += step {
		s.indices[l.Index.Slot] = v
		s.epoch++
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
	}

	if lp != nil {
		if err := w.b.LoopExit(l, lp); err != nil {
			return control{}, err
		}
	}
	return control{}, nil
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
	c := w.c.stmts[ifn.Cond.ID].cond(w.s)
	if err := w.s.takeErr(); err != nil {
		return control{}, err
	}
	if c != 0 {
		return w.nodes(ifn.Then)
	}
	return w.nodes(ifn.Else)
}

// stmt reports the statement to the backend (communication and computation
// charges), then computes its value semantics. The backend's callback and
// the value semantics share one statement instance: execution and owner
// sets evaluated in between are remembered (see State.inst).
func (w *walker) stmt(st *ir.Stmt) (control, error) {
	s := w.s
	sc := &w.c.stmts[st.ID]
	s.inst, s.execPlan, s.ownerCode = true, nil, nil
	err := w.b.Statement(st, sc.plan)
	if err != nil {
		s.inst = false
		return control{}, err
	}

	var ctl control
	switch st.Kind {
	case ir.SAssign:
		if c := sc.plan.Combine; sc.red != nil && s.PrivatizedActive(c) {
			// A privatized reduction update accumulates into the partial
			// tables; the real accumulator is only written by the loop-exit
			// merge.
			sc.red.accumulate(s, c)
		} else {
			sc.assign(s)
		}
		err = s.takeErr()
	case ir.SIfGoto:
		c := sc.cond(s)
		if err = s.takeErr(); err == nil && c != 0 {
			ctl = control{kind: ctlGoto, label: st.Label}
		}
	case ir.SGoto:
		ctl = control{kind: ctlGoto, label: st.Label}
	case ir.SRedistribute:
		if err = s.ApplyRedistribute(st); err == nil {
			err = w.b.Redistribute(st)
		}
	case ir.SContinue, ir.SIf, ir.SLoopBounds:
		// No value semantics here (If predicates are evaluated by ifNode).
	}
	s.inst = false
	return ctl, err
}
