// Chaos mode: wall-clock fault tolerance for the concurrent backend.
//
// When the run has an active fault plan or a checkpoint interval, every
// worker keeps its own eval.Account — machine and seeded injector — charged
// by the same operations, in the same order, as the simulator's, so modeled
// Stats, simulated Time, and fault-event counts agree with sim bitwise by
// construction (the differential oracle demands exactly that). Loss,
// duplication and slowdowns exist only there, as charges; the transport
// delivers every message exactly once.
//
// Recovery has two paths. A scheduled fail-stop crash takes the coordinated
// one: it fires at the same crash site of the shared schedule on every worker
// (same injector, same draw), each worker's account takes the simulator's
// Recover charge, and the worker restores its own memory from the last
// coordinated checkpoint snapshot, physically refetches the crashed
// processor's non-replicated state from a survivor, and re-executes the lost
// interval with accounting and tracing suppressed — so the final cost model
// never double-charges. A real panic or a stall, which the simulator does not
// model, kills the worker set for real and heals at the run level: Run
// restores all workers from executor-held snapshots of the last complete
// checkpoint generation and re-spawns them with fresh transport.
package exec

import (
	"errors"
	"fmt"
	"math"

	"phpf/internal/eval"
	"phpf/internal/fault"
)

// workerSnap is one worker's published checkpoint: everything needed to
// rebuild the worker at that boundary. The memory snapshot serves the
// coordinated in-band restore; the rest (sequence counters, the account's
// clocks, statistics and injector draw position) serves the run-level heal,
// which rebuilds transport from scratch.
type workerSnap struct {
	gen     int64 // from 1; 0 marks an empty slot
	state   *eval.Snapshot
	cursor  eval.Cursor
	sendSeq []uint64
	recvSeq []uint64
	acct    eval.AccountState
}

// crashSignal unwinds a worker's walk when scheduled fail-stop crashes fire
// at a crash-check site (coordinated path). Every worker returns the same
// signal at the same site; the driver loop in runChaosWorker restores and
// resumes.
type crashSignal struct {
	crashes []fault.Crash
	target  int64 // site counter at the crash: replay suppression lifts here
}

func (c *crashSignal) Error() string {
	return fmt.Sprintf("exec: %d scheduled crash(es) fired", len(c.crashes))
}

// healState is the plan for one run-level heal: a complete snapshot
// generation, plus the processor whose panic killed the set, to account and
// refetch (nil for a stall).
type healState struct {
	snaps []workerSnap
	crash *fault.Crash
}

// setupChaos wires worker 0's account into the trace and, on a heal, rewinds
// every worker to the heal's checkpoint generation. It runs on Run's
// goroutine before workers spawn, so worker 0's shard-0 trace emission from
// the Heal charge below is race-free.
func (ex *executor) setupChaos(workers []*worker, heal *healState) {
	if ex.rec != nil {
		// Worker 0's machine contributes the fault-protocol events
		// (checkpoint/restart/fault) stamped with wall time; everything else
		// the workers emit themselves from real activity, so nothing is
		// double-counted.
		m := workers[0].acct.M
		m.Rec, m.FaultEventsOnly, m.Now = ex.rec, true, ex.wall
	}
	if heal == nil {
		return
	}
	for p, w := range workers {
		snap := heal.snaps[p]
		w.acct.Restore(snap.acct)
		w.gen = snap.gen
		copy(w.sendSeq, snap.sendSeq)
		copy(w.recvSeq, snap.recvSeq)
		w.resume = snap.cursor
		// Re-seed the published snapshots so a second failure before
		// the next checkpoint can heal from the same generation.
		ex.snaps[p] = snap
		ex.prevSnaps[p] = workerSnap{}
		if heal.crash != nil {
			// Charge the dead processor's refetch and schedule the physical
			// one at worker start.
			w.acct.Heal(heal.crash.Proc)
			w.healCrash = heal.crash
		}
	}
}

// runWorker drives one worker goroutine: one pass over the schedule, in chaos
// mode wrapped in the coordinated restore loop.
func (ex *executor) runWorker(w *worker) error {
	if !ex.chaos {
		return w.run(eval.Cursor{})
	}
	if w.gen == 0 {
		// The program start is a free, trivially consistent checkpoint:
		// gen 1 with a zero cursor (resume from the top).
		w.takeSnapshot()
	} else if w.healCrash != nil {
		if err := w.refetchAll([]fault.Crash{*w.healCrash}); err != nil {
			return err
		}
	}
	cur := w.resume
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
		snap := ex.snaps[w.proc]
		w.st.Restore(snap.state)
		w.replay = true
		w.replayTarget = cs.target
		w.sites = 0
		if w.proc == 0 {
			ex.softRestarts += int64(len(cs.crashes))
		}
		if err := w.refetchAll(cs.crashes); err != nil {
			return err
		}
		cur = snap.cursor
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

// CheckpointSite takes a coordinated checkpoint when the account says one is
// due — the same condition, at the same sites, as the simulator — then
// synchronizes all workers with a real barrier and publishes a snapshot.
// Suppressed during replay: by definition no checkpoint fired between the
// restored checkpoint and the crash, so none may fire during re-execution.
func (w *worker) CheckpointSite() error {
	if !w.ex.chaos || w.replay || !w.acct.Checkpoint() {
		return nil
	}
	// The barrier before the snapshot bounds generation skew to one: a
	// worker publishing gen k+1 proves every worker reached this boundary,
	// so all hold at least gen k — the run-level heal relies on that.
	if err := w.starBarrier(tagCkpt, tagCkptRelease, "checkpoint"); err != nil {
		return err
	}
	w.takeSnapshot()
	w.sites = 0
	return nil
}

// takeSnapshot publishes this worker's next checkpoint generation. The
// worker writes only its own slot; Run reads the slots after the workers
// join, so the accesses are ordered by the WaitGroup.
func (w *worker) takeSnapshot() {
	cur, _ := w.st.Cursor() // zero cursor (resume from start) outside a CheckpointSite
	w.gen++
	snap := workerSnap{
		gen:     w.gen,
		state:   w.st.Snapshot(),
		cursor:  cur,
		sendSeq: append([]uint64(nil), w.sendSeq...),
		recvSeq: append([]uint64(nil), w.recvSeq...),
		acct:    w.acct.Save(),
	}
	w.ex.prevSnaps[w.proc] = w.ex.snaps[w.proc]
	w.ex.snaps[w.proc] = snap
}

// refetchAll performs the physical recovery refetch: for each crashed
// processor, the lowest surviving worker streams that processor's
// non-replicated state — one message per eval.RefetchItem, exactly the
// modeled RecoveryMessages — carrying the element count and a checksum the
// restarted worker verifies against its restored image.
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
		what := fmt.Sprintf("recovery refetch for p%d", c.Proc)
		for _, it := range items {
			sum := w.itemSum(it)
			if w.proc == src {
				m := message{req: tagRefetch, count: int32(it.Elems), hasVal: true, bits: sum}
				if err := w.send(c.Proc, m, what); err != nil {
					return err
				}
				continue
			}
			got, err := w.recv(src, tagRefetch, what)
			if err != nil {
				return err
			}
			if int64(got.count) != it.Elems {
				return &DivergenceError{Proc: w.proc, Peer: src,
					What: what + ": " + it.Var.Name + " (element count)",
					Got:  float64(got.count), Want: float64(it.Elems)}
			}
			if err := w.verify(got, sum, src, what, ": "+it.Var.Name+" (checksum)"); err != nil {
				return err
			}
		}
	}
	return nil
}

// itemSum folds one refetch item's current local value into a checksum:
// the full array image for arrays (identical on both sides under
// replicated execution), the scalar's bit pattern otherwise.
func (w *worker) itemSum(it eval.RefetchItem) uint64 {
	sum := eval.FNVOffset
	if it.Var.IsArray() {
		for _, x := range w.st.Array(it.Var) {
			sum = eval.FNVAdd(sum, math.Float64bits(x))
		}
		return sum
	}
	return eval.FNVAdd(sum, math.Float64bits(w.st.Scalar(it.Var)))
}

// healable reports whether a run-level heal can answer this error: worker
// deaths (panics) and stalls — not divergence or protocol violations, which a
// retry would only mask.
func healable(err error) bool {
	var we *WorkerError
	var se *StallError
	return errors.As(err, &we) || errors.As(err, &se)
}

// buildHeal assembles the restore plan for a run-level heal: the newest
// checkpoint generation every worker holds (the checkpoint barrier bounds
// skew to one, so it is the minimum of the latest generations), plus the
// processor to account when the failure was a panic.
func (ex *executor) buildHeal(err error) *healState {
	g := int64(math.MaxInt64)
	for i := range ex.snaps {
		if ex.snaps[i].gen == 0 {
			return nil
		}
		g = min(g, ex.snaps[i].gen)
	}
	snaps := make([]workerSnap, ex.n)
	for i := range snaps {
		switch {
		case ex.snaps[i].gen == g:
			snaps[i] = ex.snaps[i]
		case ex.prevSnaps[i].gen == g:
			snaps[i] = ex.prevSnaps[i]
		default:
			return nil
		}
	}
	h := &healState{snaps: snaps}
	var we *WorkerError
	if errors.As(err, &we) {
		h.crash = &fault.Crash{Proc: we.Proc}
	}
	return h
}
