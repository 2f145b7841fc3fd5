// Chaos mode: the concurrent backend under an active fault plan or a
// checkpoint interval. Every worker keeps its own eval.Account — machine and
// seeded injector — charged by the same operations, in the same order, as the
// simulator's, so modeled Stats, simulated Time, and fault-event counts agree
// with sim bitwise by construction (the differential oracle demands exactly
// that). Loss, duplication and slowdowns exist only there, as charges; the
// transport delivers every message exactly once.
//
// A scheduled fail-stop crash fires at the same crash site of the shared
// schedule on every worker (same injector, same draw); each worker's account
// takes the simulator's Recover charge, and the worker restores its own memory
// from its last coordinated checkpoint snapshot, physically refetches the
// crashed processor's non-replicated state from a survivor, and re-executes
// the lost interval with accounting and tracing suppressed — so the final cost
// model never double-charges. A real panic or a stall is not a scheduled
// crash: the simulator does not model it, and it ends the run (exec.go).
package exec

import (
	"errors"
	"fmt"
	"math"

	"phpf/internal/eval"
	"phpf/internal/fault"
)

// workerSnap is one worker's checkpoint: its memory and the cursor its walk
// resumes from.
type workerSnap struct {
	state  *eval.Snapshot
	cursor eval.Cursor
}

// crashSignal unwinds a worker's walk when scheduled fail-stop crashes fire
// at a crash-check site. Every worker returns the same signal at the same
// site; the restore loop in runWorker restores and resumes.
type crashSignal struct {
	crashes []fault.Crash
	target  int64 // site counter at the crash: replay suppression lifts here
}

func (c *crashSignal) Error() string {
	return fmt.Sprintf("exec: %d scheduled crash(es) fired", len(c.crashes))
}

// runWorker drives one worker goroutine: one pass over the schedule, in chaos
// mode wrapped in the coordinated restore loop.
func (ex *executor) runWorker(w *worker) error {
	if !ex.chaos {
		return w.run(eval.Cursor{})
	}
	// The program start is a free, trivially consistent checkpoint (a zero
	// cursor: resume from the top).
	w.takeSnapshot()
	var cur eval.Cursor
	for {
		err := w.run(cur)
		var cs *crashSignal
		if !errors.As(err, &cs) {
			return err
		}
		// Coordinated restore: every worker caught the same signal at the
		// same site. Memory rolls back to the last checkpoint; the account
		// does NOT (it went through Recover, exactly like the simulator's,
		// and replay suppression keeps the draw streams aligned); sequence
		// counters roll forward so re-executed sends get fresh, consistent
		// numbers on every edge.
		w.st.Restore(w.snap.state)
		w.replay = true
		w.replayTarget = cs.target
		w.sites = 0
		if w.proc == 0 {
			ex.restarts += int64(len(cs.crashes))
		}
		if err := w.refetchAll(cs.crashes); err != nil {
			return err
		}
		cur = w.snap.cursor
	}
}

// CrashSite is one crash site of the shared schedule (chaos mode only).
// During replay it only advances the site counter, lifting suppression at
// the recorded crash site.
func (w *worker) CrashSite() error {
	if !w.ex.chaos {
		return nil
	}
	w.sites++
	if w.replay {
		if w.sites >= w.replayTarget {
			w.replay = false
		}
		return nil
	}
	crashes := w.acct.RecoverCrashes()
	if len(crashes) == 0 {
		return nil
	}
	return &crashSignal{crashes: crashes, target: w.sites}
}

// Checkpoint follows a coordinated checkpoint the account took — the same
// condition, at the same sites, as the simulator's, and none during a replay,
// as none fired between the restored checkpoint and the crash: it
// synchronizes all workers with a real barrier and takes a snapshot. The
// barrier makes the checkpoint coordinated for real, as the model charges
// it: no worker passes it before every worker has reached it.
func (w *worker) Checkpoint() error {
	if err := w.starBarrier(tagCkpt, tagCkptRelease); err != nil {
		return err
	}
	w.takeSnapshot()
	w.sites = 0
	return nil
}

// takeSnapshot replaces this worker's checkpoint with its state now.
func (w *worker) takeSnapshot() {
	cur, _ := w.st.Cursor() // zero cursor (resume from start) outside a checkpoint site
	w.snap = workerSnap{state: w.st.Snapshot(), cursor: cur}
}

// refetchAll performs the physical recovery refetch: for each crashed
// processor, the lowest surviving worker streams that processor's
// non-replicated state — one message per eval.RefetchItem, exactly the
// modeled RecoveryMessages — carrying the item's element count, which the
// restarted worker checks against its own itemization, and, for a scalar
// both hold at the checkpoint, its value, which it checks against the one it
// restored. (Each worker restored its own image; nothing else is held by
// both ends.)
func (w *worker) refetchAll(crashes []fault.Crash) error {
	crashed := make(map[int]bool, len(crashes))
	for _, c := range crashes {
		crashed[c.Proc] = true
	}
	src := -1
	for p := 0; p < w.ex.n; p++ {
		if !crashed[p] {
			src = p
			break
		}
	}
	if src < 0 {
		return nil // everyone crashed: the local restores are all there is
	}
	for _, c := range crashes {
		if w.proc != src && w.proc != c.Proc {
			continue
		}
		items := eval.RefetchItems(w.st, c.Proc, w.elemBytes())
		for _, it := range items {
			both := !it.Var.IsArray() && w.st.Holders(it.Var).Contains(src) && w.st.Holders(it.Var).Contains(c.Proc)
			var vals [2]float64
			vals[0] = float64(it.Elems)
			if both {
				vals[1] = w.st.Scalar(it.Var)
			}
			got := vals
			received, err := w.deliver(tagRefetch, src, only(c.Proc), got[:], false)
			if err != nil {
				return err
			}
			for k, name := range []string{"element count", "value"} {
				if received && math.Float64bits(got[k]) != math.Float64bits(vals[k]) {
					return &DivergenceError{Proc: w.proc, Peer: src, Got: got[k], Want: vals[k],
						What: fmt.Sprintf("recovery refetch for p%d: %s (%s)", c.Proc, it.Var.Name, name)}
				}
			}
		}
	}
	return nil
}
