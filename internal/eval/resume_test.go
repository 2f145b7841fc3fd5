package eval

import (
	"errors"
	"fmt"
	"testing"

	"phpf/internal/ir"
	"phpf/internal/spmd"
)

// recBackend records the walk's event stream as strings and can capture a
// cursor plus snapshot at a chosen LoopEntry occurrence, then abort at a
// chosen later event — mimicking a checkpoint followed by a crash.
type recBackend struct {
	st     *State
	events []string

	entries  int // LoopEntry occurrences seen so far
	ckptAt   int // capture cursor+snapshot at this LoopEntry (0 = never)
	cursor   Cursor
	snapshot *Snapshot

	abortAt  int // return errCrash at this event index (0 = never)
	hasCkpt  bool
	resuming bool // suppress event recording until the cursor boundary re-fires
}

var errCrash = errors.New("crash")

func (r *recBackend) ev(s string) error {
	if !r.resuming {
		r.events = append(r.events, s)
	}
	if r.abortAt > 0 && len(r.events) == r.abortAt {
		return errCrash
	}
	return nil
}

func (r *recBackend) LoopEntry(l *ir.Loop, lp *spmd.LoopPlan) error {
	r.resuming = false
	r.entries++
	if r.ckptAt > 0 && r.entries == r.ckptAt {
		cur, ok := r.st.Cursor()
		if !ok {
			return fmt.Errorf("cursor unavailable inside LoopEntry")
		}
		r.cursor = cur
		r.snapshot = r.st.Snapshot()
		r.hasCkpt = true
	}
	return r.ev(fmt.Sprintf("entry %s", l.Index.Name))
}

func (r *recBackend) LoopExit(l *ir.Loop, lp *spmd.LoopPlan) error {
	return r.ev(fmt.Sprintf("exit %s", l.Index.Name))
}

func (r *recBackend) Statement(st *ir.Stmt, sp *spmd.StmtPlan) error {
	return r.ev(fmt.Sprintf("stmt %d@%d", st.ID, r.st.Index(loopIndexOf(r.st, st))))
}

// loopIndexOf gives a little per-statement context: the innermost loop
// index value (0 when none is live). Cheap way to make the event stream
// iteration-sensitive.
func loopIndexOf(s *State, st *ir.Stmt) *ir.Var {
	for _, v := range s.Prog.Res.Prog.VarList {
		if v.IsLoopIndex {
			return v
		}
	}
	return nil
}

func (r *recBackend) Redistribute(st *ir.Stmt) error { return r.ev("redist") }
func (r *recBackend) Tick() error                    { return r.ev("tick") }

const resumeSrc = `
program t
parameter n = 6
real a(n)
real s
integer i, j
!hpf$ distribute (block) :: a
s = 0.0
do i = 1, n
  a(i) = i * 2.0
  do j = 1, 2
    s = s + a(i)
  end do
end do
end
`

// resumeSources are the tree shapes a cursor must find its way back through:
// a plain nest, a loop inside an ELSE branch, a loop inside a list that a
// backward goto re-runs, and a loop at depth three.
var resumeSources = map[string]string{
	"nest": resumeSrc,
	"else": `
program t
parameter n = 6
real a(n)
real s
integer i, j
!hpf$ distribute (block) :: a
s = 0.0
do i = 1, n
  if (i > 3) then
    a(i) = 1.0
  else
    a(i) = 2.0
    do j = 1, 2
      s = s + a(i)
    end do
  end if
end do
end
`,
	"goto": `
program t
parameter n = 4
real a(n)
real s
integer i, k
!hpf$ distribute (block) :: a
s = 0.0
k = 0
10 continue
k = k + 1
do i = 1, n
  a(i) = a(i) + k
  s = s + a(i)
end do
if (k < 3) goto 10
s = s * 2.0
end
`,
	"depth3": `
program t
parameter n = 3
real a(n,n,n)
real s
integer i, j, k
!hpf$ distribute (block,*,*) :: a
s = 0.0
do i = 1, n
  do j = 1, 2
    s = s + 1.0
    do k = 1, n
      a(i,j,k) = s + k
    end do
  end do
end do
end
`,
}

// eachResumeSource runs f on every resume shape.
func eachResumeSource(t *testing.T, f func(t *testing.T, p *spmd.Program)) {
	for name, src := range resumeSources {
		t.Run(name, func(t *testing.T) { f(t, compile(t, src, 2)) })
	}
}

// TestWalkResumeMatchesWalk: a walk with no cursor — Walk itself, and
// WalkResume from nil and from the zero cursor — produces one event stream
// and one final memory image.
func TestWalkResumeMatchesWalk(t *testing.T) {
	eachResumeSource(t, testWalkResumeMatchesWalk)
}

func testWalkResumeMatchesWalk(t *testing.T, p *spmd.Program) {

	plain, _ := NewState(p)
	rp := &recBackend{st: plain}
	if err := Walk(plain, rp); err != nil {
		t.Fatal(err)
	}

	tracked, _ := NewState(p)
	rt := &recBackend{st: tracked}
	if err := WalkResume(tracked, rt, nil); err != nil {
		t.Fatal(err)
	}

	if fmt.Sprint(rp.events) != fmt.Sprint(rt.events) {
		t.Fatalf("tracked walk diverged:\nplain:   %v\ntracked: %v", rp.events, rt.events)
	}
	compareStates(t, plain, tracked)

	zero, _ := NewState(p)
	rz := &recBackend{st: zero}
	if err := WalkResume(zero, rz, &Cursor{}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rp.events) != fmt.Sprint(rz.events) {
		t.Fatalf("walk from the zero cursor diverged:\nplain: %v\nzero:  %v", rp.events, rz.events)
	}
}

// TestCheckpointRestartResume: capture a cursor+snapshot at a mid-program
// LoopEntry, "crash" later, restore the snapshot, and resume from the
// cursor. The resumed run must replay exactly the events from the
// checkpoint boundary onward and end in the same memory image as an
// uninterrupted run.
func TestCheckpointRestartResume(t *testing.T) {
	eachResumeSource(t, testCheckpointRestartResume)
}

func testCheckpointRestartResume(t *testing.T, p *spmd.Program) {

	// Reference run: full event stream, no interruption.
	ref, _ := NewState(p)
	rr := &recBackend{st: ref}
	if err := WalkResume(ref, rr, nil); err != nil {
		t.Fatal(err)
	}

	// Try checkpointing at every LoopEntry occurrence and crashing at
	// several points after it.
	total := 0
	for _, e := range rr.events {
		if len(e) > 5 && e[:5] == "entry" {
			total++
		}
	}
	if total < 3 {
		t.Fatalf("test program has only %d loop entries", total)
	}
	for ckpt := 1; ckpt <= total; ckpt++ {
		for _, crashDelta := range []int{1, 3, 7} {
			st, _ := NewState(p)
			r := &recBackend{st: st, ckptAt: ckpt}

			// Find the event index of the ckpt-th LoopEntry in the
			// reference stream, then crash crashDelta events later.
			seen, boundary := 0, -1
			for i, e := range rr.events {
				if len(e) > 5 && e[:5] == "entry" {
					seen++
					if seen == ckpt {
						boundary = i
						break
					}
				}
			}
			crashAt := boundary + 1 + crashDelta
			if crashAt > len(rr.events) {
				continue
			}
			r.abortAt = crashAt
			err := WalkResume(st, r, nil)
			if !errors.Is(err, errCrash) {
				t.Fatalf("ckpt=%d crash=%d: walk returned %v, want crash", ckpt, crashDelta, err)
			}
			if !r.hasCkpt {
				t.Fatalf("ckpt=%d: checkpoint never captured", ckpt)
			}

			// Restore and resume. The resumed stream (starting with the
			// re-fired LoopEntry at the boundary) must equal the reference
			// suffix from the boundary.
			st.Restore(r.snapshot)
			r2 := &recBackend{st: st}
			if err := WalkResume(st, r2, &r.cursor); err != nil {
				t.Fatalf("ckpt=%d crash=%d: resume failed: %v", ckpt, crashDelta, err)
			}
			want := fmt.Sprint(rr.events[boundary:])
			if got := fmt.Sprint(r2.events); got != want {
				t.Fatalf("ckpt=%d crash=%d: resumed stream diverged:\nwant %s\ngot  %s",
					ckpt, crashDelta, want, got)
			}
			compareStates(t, ref, st)
		}
	}
}

// TestResumeRejectsCorruptedCursor: a cursor that does not describe a loop
// entry of this program — a loop of another program, a wrong nesting depth —
// is refused with errBadCursor before anything runs, never a panic.
func TestResumeRejectsCorruptedCursor(t *testing.T) {
	p := compile(t, resumeSources["depth3"], 2)
	st, _ := NewState(p)
	r := &recBackend{st: st, ckptAt: 3}
	if err := Walk(st, r); err != nil {
		t.Fatal(err)
	}
	if !r.hasCkpt || len(r.cursor.iters) < 2 {
		t.Fatalf("no nested cursor captured: %+v", r.cursor)
	}
	other := compile(t, resumeSources["depth3"], 2)
	foreign, shallow, deep := r.cursor, r.cursor, r.cursor
	foreign.loop = other.Res.Prog.Loops[r.cursor.loop.ID]
	shallow.iters = shallow.iters[:len(shallow.iters)-1]
	deep.iters = append(append([]iter(nil), deep.iters...), iter{v: 1, hi: 1, step: 1})
	for name, cur := range map[string]Cursor{"foreign loop": foreign, "missing level": shallow, "extra level": deep} {
		fresh, _ := NewState(p)
		rb := &recBackend{st: fresh}
		if err := WalkResume(fresh, rb, &cur); !errors.Is(err, errBadCursor) {
			t.Errorf("%s: resume returned %v, want errBadCursor", name, err)
		}
		if len(rb.events) != 0 {
			t.Errorf("%s: %d events fired before the cursor was refused", name, len(rb.events))
		}
	}
}

// TestSnapshotRestoreRoundTrip: restoring a snapshot returns every scalar,
// index, and array element to the captured values.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	p := compile(t, resumeSrc, 2)
	st, _ := NewState(p)
	if err := Walk(st, &recBackend{st: st}); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	ref, _ := NewState(p)
	if err := Walk(ref, &recBackend{st: ref}); err != nil {
		t.Fatal(err)
	}

	// Scribble over the live image, then restore.
	a := p.Res.Prog.LookupVar("a")
	st.Array(a)[0] = -999
	sv := p.Res.Prog.LookupVar("s")
	st.scalars[sv.Slot] = -999
	st.Restore(snap)
	compareStates(t, ref, st)
}

func compareStates(t *testing.T, want, got *State) {
	t.Helper()
	for i := range want.scalars {
		if want.scalars[i] != got.scalars[i] || want.scalarSet[i] != got.scalarSet[i] {
			t.Fatalf("scalar slot %d: got %v/%v, want %v/%v",
				i, got.scalars[i], got.scalarSet[i], want.scalars[i], want.scalarSet[i])
		}
	}
	for i := range want.arrays {
		for j := range want.arrays[i] {
			if want.arrays[i][j] != got.arrays[i][j] {
				t.Fatalf("array slot %d elem %d: got %v, want %v",
					i, j, got.arrays[i][j], want.arrays[i][j])
			}
		}
	}
}
