// Resumable walks. The concurrent backend checkpoints at loop-entry
// boundaries and, after a fail-stop crash, must re-enter the program tree
// exactly where the checkpoint was cut: the cursor records the structural
// path (list positions, taken IF branches, in-flight loop iterations) down
// to the checkpointed loop, and resumption navigates that path executing
// nothing, re-fires the target loop's LoopEntry, and continues normally.
package eval

import (
	"errors"

	"phpf/internal/ir"
)

var errBadCursor = errors.New("eval: resume cursor does not match the program structure")

// frame is one level of the cursor path. Levels alternate between
// statement-list positions (idx into the list, els marking an IF's else
// branch) and loop levels (the in-flight iteration v of a loop running to
// hi by step).
type frame struct {
	idx  int
	els  bool
	loop bool
	v    int64
	hi   int64
	step int64
}

// pending holds the bounds of the loop whose LoopEntry callback is
// currently running, completing a cursor captured inside it.
type pending struct {
	lo, hi, step int64
	ok           bool
}

// Cursor is a resume point captured by State.Cursor during a LoopEntry
// callback of a tracked walk. The zero Cursor resumes from the top of the
// program. Cursors are plain values: safe to copy and to keep across the
// walk that produced them.
type Cursor struct {
	frames       []frame
	lo, hi, step int64
	valid        bool
}

// Valid reports whether the cursor names a mid-program boundary (false for
// the zero cursor, which resumes from the program start).
func (c Cursor) Valid() bool { return c.valid }

// Cursor returns the current resume point. It is valid only while a
// tracked walk (WalkResume) is inside a LoopEntry callback — the only
// boundary the backends checkpoint at; ok is false anywhere else.
func (s *State) Cursor() (Cursor, bool) {
	w := s.walk
	if w == nil || !w.pend.ok {
		return Cursor{}, false
	}
	return Cursor{
		frames: append([]frame(nil), w.path...),
		lo:     w.pend.lo, hi: w.pend.hi, step: w.pend.step,
		valid: true,
	}, true
}

// WalkResume interprets the program over s like Walk, with cursor tracking
// on (State.Cursor works inside LoopEntry callbacks). When from is a cursor
// captured by an earlier tracked walk over the same program, the walker
// first seeks to that boundary without executing anything — no statement
// semantics, no backend events, no bounds evaluation — then re-fires the
// target loop's LoopEntry and runs normally from its recorded bounds.
// The caller must have restored s to the matching checkpoint snapshot.
func WalkResume(s *State, b Backend, from *Cursor) error {
	w := &walker{s: s, b: b, c: s.lowered(), track: true}
	s.walk = w
	if from != nil && from.valid {
		w.seek = from.frames
		w.seekLo, w.seekHi, w.seekStep = from.lo, from.hi, from.step
	}
	ctl, err := w.nodes(s.Prog.Res.Prog.Body, false)
	if err != nil {
		return err
	}
	if ctl.kind == ctlGoto {
		return &GotoEscapeError{Label: ctl.label}
	}
	return nil
}

// nodesTracked is the cursor-maintaining variant of nodes. While a seek is
// active it fast-forwards straight to the recorded list position instead of
// executing the prefix.
func (w *walker) nodesTracked(list []ir.Node, els bool) (control, error) {
	depth := len(w.path)
	w.path = append(w.path, frame{els: els})
	start := 0
	if w.seek != nil {
		if depth >= len(w.seek) || w.seek[depth].loop || w.seek[depth].idx >= len(list) {
			return control{}, errBadCursor
		}
		start = w.seek[depth].idx
	}
	for i := start; i < len(list); i++ {
		w.path[depth].idx = i
		var ctl control
		var err error
		if w.seek != nil {
			ctl, err = w.seekNode(list[i], depth)
		} else {
			ctl, err = w.node(list[i])
		}
		if err != nil {
			return control{}, err
		}
		if ctl.kind == ctlGoto {
			// Look for the labeled CONTINUE later in this sequence.
			target := -1
			for j := range list {
				if st, ok := list[j].(*ir.Stmt); ok && st.Kind == ir.SContinue && st.Label == ctl.label {
					target = j
					break
				}
			}
			if target < 0 {
				w.path = w.path[:depth]
				return ctl, nil // propagate upward
			}
			i = target // resume at the label
			continue
		}
	}
	w.path = w.path[:depth]
	return control{}, nil
}

// seekNode navigates one recorded path step. At the final frame the node is
// the checkpointed loop itself: seeking ends and the loop resumes from the
// cursor's bounds. Intermediate frames descend into the recorded IF branch
// or re-enter the recorded loop iteration mid-flight (without re-firing its
// LoopEntry — that fired before the checkpoint).
func (w *walker) seekNode(n ir.Node, depth int) (control, error) {
	if depth == len(w.seek)-1 {
		l, ok := n.(*ir.Loop)
		if !ok {
			return control{}, errBadCursor
		}
		lo, hi, step := w.seekLo, w.seekHi, w.seekStep
		w.seek = nil
		return w.loopResume(l, lo, hi, step)
	}
	next := w.seek[depth+1]
	switch x := n.(type) {
	case *ir.Loop:
		if !next.loop {
			return control{}, errBadCursor
		}
		return w.iterate(x, w.s.Prog.LoopPlanOf(x), next.v, next.hi, next.step)
	case *ir.If:
		if next.loop {
			return control{}, errBadCursor
		}
		if next.els {
			return w.nodes(x.Else, true)
		}
		return w.nodes(x.Then, false)
	}
	return control{}, errBadCursor
}

// loopResume re-enters the checkpointed loop: LoopEntry re-fires (the
// checkpoint was cut inside it, so the backend re-runs the entry under its
// own replay suppression) and iteration restarts from the recorded bounds.
func (w *walker) loopResume(l *ir.Loop, lo, hi, step int64) (control, error) {
	lp := w.s.Prog.LoopPlanOf(l)
	if lp == nil {
		return control{}, errBadCursor
	}
	w.s.indices[l.Index.Slot] = lo
	w.pend = pending{lo: lo, hi: hi, step: step, ok: true}
	err := w.b.LoopEntry(l, lp)
	w.pend.ok = false
	if err != nil {
		return control{}, err
	}
	return w.iterate(l, lp, lo, hi, step)
}
