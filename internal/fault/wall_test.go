package fault

import (
	"testing"
	"time"
)

// TestWallInjectorDeterministic: keyed draws are pure functions of the
// transmission identity — same key, same decision; the duplicated copy of
// an attempt draws independently of the original.
func TestWallInjectorDeterministic(t *testing.T) {
	p := &Plan{Seed: 42, LossRate: 0.3, DupRate: 0.3}
	a := NewWallInjector(p)
	b := NewWallInjector(p)
	if a == nil || b == nil {
		t.Fatal("active plan produced nil wall injector")
	}
	for src := 0; src < 3; src++ {
		for dst := 0; dst < 3; dst++ {
			for seq := uint64(0); seq < 50; seq++ {
				for att := 0; att < 3; att++ {
					if a.DropAttempt(src, dst, seq, att, false) != b.DropAttempt(src, dst, seq, att, false) {
						t.Fatalf("drop draw not reproducible at (%d,%d,%d,%d)", src, dst, seq, att)
					}
					if a.DropAttempt(src, dst, seq, att, true) != b.DropAttempt(src, dst, seq, att, true) {
						t.Fatalf("dup-copy drop draw not reproducible at (%d,%d,%d,%d)", src, dst, seq, att)
					}
				}
				if a.Duplicate(src, dst, seq) != b.Duplicate(src, dst, seq) {
					t.Fatalf("dup draw not reproducible at (%d,%d,%d)", src, dst, seq)
				}
			}
		}
	}
	// The drop rate should roughly track the plan (loose sanity bound).
	drops := 0
	const n = 4000
	for seq := uint64(0); seq < n; seq++ {
		if a.DropAttempt(0, 1, seq, 0, false) {
			drops++
		}
	}
	if frac := float64(drops) / n; frac < 0.2 || frac > 0.4 {
		t.Fatalf("drop fraction %.3f far from loss rate 0.3", frac)
	}
}

// TestWallInjectorGating: plans without wire faults get no wall injector,
// and nil receivers behave as a perfectly reliable wire.
func TestWallInjectorGating(t *testing.T) {
	if NewWallInjector(nil) != nil {
		t.Fatal("nil plan produced a wall injector")
	}
	if NewWallInjector(&Plan{Crashes: []Crash{{Proc: 1, At: 0.5}}}) != nil {
		t.Fatal("crash-only plan produced a wall injector (crashes are model-level)")
	}
	var w *WallInjector
	if w.DropAttempt(0, 1, 0, 0, false) || w.Duplicate(0, 1, 0) {
		t.Fatal("nil wall injector injected a fault")
	}
	if w.SendDelay(0, 0) != 0 {
		t.Fatal("nil wall injector delayed a send")
	}
	if w.RTO() != DefaultWallRTO {
		t.Fatalf("nil wall injector RTO = %v, want default", w.RTO())
	}
}

// TestWallInjectorRTOAndDelay: the plan's RTO converts to wall seconds, and
// slowdown windows convert factors to delay units with compounding.
func TestWallInjectorRTOAndDelay(t *testing.T) {
	w := NewWallInjector(&Plan{RTO: 0.25, Slowdowns: []Slowdown{
		{Proc: 1, Factor: 3, Start: 0, Duration: 10},
		{Proc: 1, Factor: 2, Start: 5, Duration: 0},
	}})
	if got := w.RTO(); got != 250*time.Millisecond {
		t.Fatalf("RTO = %v, want 250ms", got)
	}
	w.DelayUnit = time.Millisecond
	if got := w.SendDelay(0, 1); got != 0 {
		t.Fatalf("unslowed proc delayed %v", got)
	}
	if got := w.SendDelay(1, 1); got != 2*time.Millisecond {
		t.Fatalf("factor-3 window: delay = %v, want 2ms", got)
	}
	// At t=6 both windows overlap: factor 3*2=6 → 5 units.
	if got := w.SendDelay(1, 6); got != 5*time.Millisecond {
		t.Fatalf("compounded windows: delay = %v, want 5ms", got)
	}
	// After the bounded window ends only the unbounded one remains.
	if got := w.SendDelay(1, 11); got != time.Millisecond {
		t.Fatalf("after first window: delay = %v, want 1ms", got)
	}
}

// TestInjectorCloneConsume: Clone captures the draw stream position and the
// fired-crash marks, so a restored run does not re-fire a crash.
func TestInjectorCloneConsume(t *testing.T) {
	p := &Plan{Seed: 7, LossRate: 0.5, Crashes: []Crash{{Proc: 0, At: 1}, {Proc: 1, At: 2}}}
	in := NewInjector(p)
	for i := 0; i < 10; i++ {
		in.DropMessage()
	}
	snap := in.Clone()
	// Diverge the original, then check the clone replays from the snapshot.
	var orig, cloned []bool
	for i := 0; i < 20; i++ {
		orig = append(orig, in.DropMessage())
	}
	for i := 0; i < 20; i++ {
		cloned = append(cloned, snap.DropMessage())
	}
	for i := range orig {
		if orig[i] != cloned[i] {
			t.Fatalf("clone diverged from original at draw %d", i)
		}
	}
	fresh := NewInjector(p)
	if c := fresh.PendingCrash(1); c == nil || c.Proc != 0 {
		t.Fatalf("at t=1, pending = %+v, want proc 0", c)
	}
	fired := fresh.Clone()
	if c := fired.PendingCrash(5); c == nil || c.Proc != 1 {
		t.Fatalf("clone after a fired crash, pending = %+v, want proc 1", c)
	}
	if c := fired.PendingCrash(5); c != nil {
		t.Fatalf("all crashes fired, pending = %+v", c)
	}
	if c := fresh.PendingCrash(5); c == nil || c.Proc != 1 {
		t.Fatalf("the original after its clone fired, pending = %+v, want proc 1", c)
	}
	var nilIn *Injector
	if nilIn.Clone() != nil {
		t.Fatal("nil injector Clone misbehaved")
	}
}
