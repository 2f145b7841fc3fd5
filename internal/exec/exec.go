// Package exec is the concurrent SPMD execution backend: one goroutine per
// simulated processor runs the planned SPMD program for real, exchanging
// messages over channel-based bounded mailboxes wherever the communication
// plan (comm.Requirement) says data must move.
//
// Execution is replicated: every worker interprets the full program over its
// own memory image, exactly as the simulator interprets it over its single
// global image, so all workers make identical control-flow and
// communication decisions in the same order (the property that makes the
// rendezvous below deadlock-free). Messages carry the communicated value so
// receivers verify, bitwise, that the replicated images have not diverged;
// a final cross-worker sweep verifies complete memory agreement.
//
// One planned message is one physical message: message vectorization is the
// compiler's placement decision (a hoisted requirement, one Vectorized
// operation), and a per-instance transfer the plan left inside a loop is sent
// at once, carrying the element's value, exactly as the cost model charges it
// and the simulator traces it. Sends never wait for a later operation, so no
// transfer is in flight at a crash site, and immediate sends cannot deadlock:
// every worker issues the same operations in the same global order, so the
// worker furthest behind in it can always proceed — a message it waits for was
// sent by a peer already at or past that operation, and its receiver, no
// further behind, has taken every message of an earlier operation.
//
// The interpretation core — value semantics, execution sets, communication
// decisions, and the schedule of operations (eval.Ops) — is internal/eval's
// and shared with the sequential simulator (internal/sim): this package
// implements each operation as real traffic and knows nothing of their
// order. Communication statistics are the simulator's by construction:
// worker 0, which observes every operation in program order like the
// simulator does, is the accountant, handing each one to the same
// eval.Account the simulator charges before transmitting it (one goroutine
// owns the account, so it needs no locking). That is what lets the
// differential oracle (Diff) demand bit-for-bit agreement. The real channel
// traffic is verified independently, through per-edge sequence numbers,
// requirement tags, and the watchdog.
//
// A fault plan's message loss, duplication and slowdowns are what they are
// on the simulator: charges of the replayed account, which Diff compares.
// The mailboxes lose nothing. Only crashes are physical (chaos.go): a worker
// set rolls back to a coordinated checkpoint and refetches for real.
//
// Robustness: a worker panic is contained and surfaced as *WorkerError
// with the process intact; a wedged worker set is detected by the stall
// watchdog and reported as *StallError naming the blocked operations; and
// cancellation or deadline on the caller's context unwinds every worker
// (replacing the simulator's ad-hoc simulated-time cutoff with real
// wall-clock enforcement). Each ends the run at its first occurrence, in
// chaos mode as outside it: the simulator models neither a panic nor a stall,
// so no retry of one could be checked against it, and replicated execution is
// deterministic, so a retry would meet the same panic or wedge again.
package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"phpf/internal/comm"
	"phpf/internal/core"
	"phpf/internal/dist"
	"phpf/internal/eval"
	"phpf/internal/ir"
	"phpf/internal/machine"
	"phpf/internal/spmd"
	"phpf/internal/trace"
)

// DefaultMailboxDepth is the bound of each directed mailbox.
const DefaultMailboxDepth = 64

// DefaultStallTimeout is the default quiet period after which the watchdog
// declares the worker set stalled.
const DefaultStallTimeout = 10 * time.Second

// Config is the one run configuration (see eval.RunOptions): the concurrent
// backend takes every field but the simulator's MaxSeconds and Profile.
type Config = eval.RunOptions

// Result is the one run outcome (see eval.Report).
type Result = eval.Report

// hooks are the package's test seams, passed to run beside the configuration
// (Run passes none): dropSend suppresses a worker's sends for a requirement,
// wedging its receivers on purpose; tick runs at every loop-iteration tick;
// mailboxDepth overrides DefaultMailboxDepth.
type hooks struct {
	dropSend     func(proc int, req *comm.Requirement) bool
	tick         func(proc int) error
	mailboxDepth int
}

// message is one mailbox entry. Each directed edge carries an independent
// sequence number; receivers verify both the tag and the sequence, so any
// divergence in the workers' planned event order is a ProtocolError, not a
// silent mismatch.
type message struct {
	req    int    // comm.Requirement ID, or a negative protocol tag
	seq    uint64 // per-edge sequence number
	bits   uint64 // math.Float64bits of the payload, or a checksum
	count  int32  // a recovery refetch item's element count
	hasVal bool
}

// Protocol tags for traffic that does not belong to a planned requirement.
const (
	tagReduce       = -2  // member -> root partial-value message
	tagReduceResult = -3  // root -> member combined-result message
	tagBarrier      = -4  // member -> coordinator redistribution barrier
	tagRelease      = -5  // coordinator -> member barrier release
	tagCkpt         = -6  // member -> coordinator checkpoint barrier
	tagCkptRelease  = -7  // coordinator -> member checkpoint release
	tagRefetch      = -8  // survivor -> restarted recovery refetch
	tagCopyOut      = -9  // lastprivate final-value broadcast, root -> member
	tagMerge        = -10 // privatized-reduction tree-merge hop, loser -> winner
)

type executor struct {
	cfg   Config
	hooks hooks
	ctx   context.Context
	ended *atomic.Bool // eval.Ended(ctx): what Tick polls
	n     int

	// mail[from][to] is the bounded mailbox for one directed edge.
	mail [][]chan message
	wd   *watchdog
	// reqDesc names each planned requirement for watchdog reports.
	reqDesc map[int]string

	// rec, when non-nil, receives wall-time events; start anchors the time
	// axis at run start.
	rec   *trace.Recorder
	start time.Time

	traffic atomic.Int64

	// Chaos mode (an active fault plan or a checkpoint interval): every
	// worker keeps an account and snapshots its state at coordinated
	// checkpoints.
	chaos bool
	// restarts counts coordinated in-band restores (written by worker 0's
	// goroutine, read by Run after the join).
	restarts int64
}

// wall is the run-relative wall clock in seconds.
func (ex *executor) wall() float64 { return time.Since(ex.start).Seconds() }

// Run executes the program concurrently. The context's cancellation or
// deadline aborts the run (every worker unwinds and the context error is
// returned); a nil ctx means context.Background().
func Run(ctx context.Context, p *spmd.Program, cfg Config) (*Result, error) {
	return run(ctx, p, cfg, hooks{})
}

// run is Run with the test seams.
func run(ctx context.Context, p *spmd.Program, cfg Config, hk hooks) (*Result, error) {
	if p == nil {
		return nil, eval.ConfigErrorf(eval.BackendConcurrent, "nil program")
	}
	n := p.NProcs()
	if err := cfg.Validate(n, eval.BackendConcurrent); err != nil {
		return nil, err
	}
	if cfg.Params == (machine.Params{}) {
		cfg.Params = machine.SP2()
	}
	depth := hk.mailboxDepth
	if depth == 0 {
		depth = DefaultMailboxDepth
	}
	stall := cfg.StallTimeout
	if stall == 0 {
		stall = DefaultStallTimeout
	}
	if ctx == nil {
		ctx = context.Background()
	}

	ex := &executor{
		cfg:     cfg,
		hooks:   hk,
		n:       n,
		reqDesc: map[int]string{},
		chaos:   cfg.Fault.Active() || cfg.CheckpointInterval > 0,
	}
	for _, req := range p.Plan.Reqs {
		ex.reqDesc[req.ID] = req.String()
	}
	if cfg.Trace != nil {
		// One shard per worker: each goroutine owns its ring outright, so
		// emission is lock-free and the run stays race-free under -race.
		ex.rec = trace.New(n, n, *cfg.Trace)
		ex.rec.SetLabels(p.StmtLabels())
	}
	ex.start = time.Now()

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ended, unhook := eval.Ended(cctx)
	defer unhook() // before cancel runs
	ex.ctx, ex.ended = cctx, ended
	ex.wd = newWatchdog(n)
	ex.mail = make([][]chan message, n)
	for i := range ex.mail {
		ex.mail[i] = make([]chan message, n)
		for j := range ex.mail[i] {
			ex.mail[i][j] = make(chan message, depth)
		}
	}
	workers := make([]*worker, n)
	for i := range workers {
		st, err := cfg.NewState(p)
		if err != nil {
			return nil, fmt.Errorf("exec: %w", err)
		}
		workers[i] = &worker{
			ex:       ex,
			proc:     i,
			st:       st,
			sendSeq:  make([]uint64, n),
			recvSeq:  make([]uint64, n),
			attrStmt: -1,
		}
		if ex.chaos || i == 0 {
			workers[i].acct = eval.NewAccount(st, cfg)
		}
	}
	if ex.chaos && ex.rec != nil {
		// Worker 0's machine contributes the fault-protocol events
		// (checkpoint/restart/fault) stamped with wall time; everything else
		// the workers emit themselves from real activity, so nothing is
		// double-counted.
		m := workers[0].acct.M
		m.Rec, m.FaultEventsOnly, m.Now = ex.rec, true, ex.wall
	}

	if stall > 0 {
		go ex.wd.watch(cctx, stall, cancel)
	}

	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(proc int) {
			defer wg.Done()
			defer ex.wd.finish(proc)
			defer func() {
				if r := recover(); r != nil {
					errs[proc] = &WorkerError{Proc: proc, PanicValue: r, Stack: string(debug.Stack())}
					cancel()
				}
			}()
			if err := ex.runWorker(workers[proc]); err != nil {
				errs[proc] = err
				cancel()
			}
		}(i)
	}
	wg.Wait()
	ex.wd.stop()
	cancel()

	if se := ex.wd.stallError(); se != nil {
		return nil, se
	}
	if err := pickError(errs); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	if err := checkConsistency(workers); err != nil {
		return nil, err
	}

	res := &Result{
		Backend:         eval.BackendConcurrent,
		Time:            workers[0].acct.M.Time(),
		Stats:           workers[0].acct.M.Stats,
		Workers:         n,
		TrafficMessages: ex.traffic.Load(),
		Trace:           ex.rec,
		Restarts:        ex.restarts,
	}
	res.Scalars, res.Arrays = workers[0].st.Export()
	return res, nil
}

// run interprets the program on this worker from a checkpoint cursor (zero:
// from the top).
func (w *worker) run(from eval.Cursor) error {
	return eval.Run(w.st, w, w.elemBytes(), &from)
}

// pickError selects the run's verdict from the per-worker errors: the first
// (lowest-processor) substantive error wins; context errors — which every
// other worker reports once the first failure cancels the run — are
// reported only when nothing better explains the failure.
func pickError(errs []error) error {
	var ctxErr error
	for proc, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if ctxErr == nil {
				ctxErr = err
			}
			continue
		}
		var ge *eval.GotoEscapeError
		if errors.As(err, &ge) {
			return fmt.Errorf("exec: goto %d escaped the program", ge.Label)
		}
		var we *WorkerError
		if errors.As(err, &we) {
			return we
		}
		return fmt.Errorf("exec: p%d: %w", proc, err)
	}
	if ctxErr != nil {
		return fmt.Errorf("exec: %w", ctxErr)
	}
	return nil
}

// checkConsistency verifies the replicated-execution invariant: every
// worker's final memory image — and, where every worker kept an account
// (chaos mode), its simulated time and statistics, proof that the replicated
// fault draws never diverged — is bitwise identical to worker 0's.
func checkConsistency(workers []*worker) error {
	ref := workers[0]
	for p := 1; p < len(workers); p++ {
		w := workers[p]
		if v, elem, want, got, differ := ref.st.Diff(w.st); differ {
			what := "final scalar " + v.Name
			if elem >= 0 {
				what = fmt.Sprintf("final %s element %d", v.Name, elem)
			}
			return &DivergenceError{Proc: p, Peer: 0, What: what, Got: got, Want: want}
		}
		if w.acct == nil {
			continue
		}
		m, rm := w.acct.M, ref.acct.M
		if math.Float64bits(m.Time()) != math.Float64bits(rm.Time()) {
			return &DivergenceError{Proc: p, Peer: 0, What: "accounted simulated time",
				Got: m.Time(), Want: rm.Time()}
		}
		for _, c := range counters(rm.Stats, m.Stats) {
			if c.got != c.want {
				return &DivergenceError{Proc: p, Peer: 0, What: "accounted " + c.name,
					Got: float64(c.got), Want: float64(c.want)}
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Worker

// worker is one simulated processor: an eval.Ops whose operations perform
// real channel communication (and, on the accountant, charge the account).
type worker struct {
	ex   *executor
	proc int
	st   *eval.State
	// sendSeq[to] / recvSeq[from] are the per-edge sequence counters.
	sendSeq, recvSeq []uint64

	// Trace attribution for the communication currently in flight: statement,
	// class, and per-message payload bytes (the requirement ID travels in the
	// message itself). mute suppresses emission for real traffic the cost
	// model does not charge (e.g. ring slots of non-participants).
	attrStmt  int32
	attrClass dist.CommClass
	attrBytes int64
	mute      bool

	// acct is this worker's account of the cost model — machine, seeded
	// injector, checkpoint clock — the same the simulator charges. Fault-free
	// runs give one to worker 0 only (the accountant); chaos mode gives every
	// worker its own, so all replicated accounts — including the seeded
	// fault draws — can be cross-checked after the run.
	acct *eval.Account
	// sites counts crash-check sites since the last checkpoint; it is the
	// replay-progress coordinate used to suppress re-execution side effects
	// exactly up to the crash point.
	sites int64
	// replay is true while re-executing the interval [checkpoint, crash]
	// after a coordinated restore: accounting, tracing, and checkpointing
	// are suppressed; real communication still flows (with fresh sequence
	// numbers, consistent across workers).
	replay       bool
	replayTarget int64
	// snap is this worker's last coordinated checkpoint (chaos mode).
	snap workerSnap
}

// setAttr stamps the attribution for the planned messages about to flow.
func (w *worker) setAttr(stmt int, class dist.CommClass, bytes int64) {
	w.attrStmt, w.attrClass, w.attrBytes = int32(stmt), class, bytes
}

// clearAttr resets the attribution to "none".
func (w *worker) clearAttr() {
	w.attrStmt, w.attrClass, w.attrBytes, w.mute = -1, dist.CommNone, 0, false
}

// emit records one event into this worker's shard (callers guard on
// w.ex.rec != nil).
func (w *worker) emit(k trace.Kind, peer int, dur float64, bytes int64, req int) {
	w.ex.rec.Emit(w.proc, trace.Event{
		Time: w.ex.wall(), Dur: dur, Bytes: bytes, Kind: k, Class: w.attrClass,
		Proc: int32(w.proc), Peer: int32(peer), Stmt: w.attrStmt, Req: int32(req),
	})
}

// elemBytes is the payload size of one element message.
func (w *worker) elemBytes() int64 { return int64(w.ex.cfg.Params.ElemBytes) }

// charges reports whether this worker charges the cost model right now: it
// keeps an account (worker 0 always; every worker in chaos mode) and is not
// re-executing an already-accounted interval after a restore.
func (w *worker) charges() bool { return w.acct != nil && !w.replay }

// traces reports whether this worker emits trace events right now (replay
// re-executes already-traced work, so emission is suppressed).
func (w *worker) traces() bool { return w.ex.rec != nil && !w.replay }

func (w *worker) desc(req *comm.Requirement) string { return w.ex.reqDesc[req.ID] }

// send delivers m on the edge proc->to, blocking when the mailbox is full.
// The blocked operation registers with the watchdog only after the
// non-blocking fast path fails.
func (w *worker) send(to int, m message, what string) error {
	m.seq = w.sendSeq[to]
	w.sendSeq[to]++
	ch := w.ex.mail[w.proc][to]
	select {
	case ch <- m:
		w.ex.traffic.Add(1)
		w.ex.wd.tick()
		w.tracePlanned(trace.Send, to, m)
		return nil
	default:
	}
	h := w.ex.wd.block(w.proc, "send", to, what)
	defer w.ex.wd.unblock(h)
	blocked := w.ex.wall()
	select {
	case ch <- m:
		w.ex.traffic.Add(1)
		w.ex.wd.tick()
		if w.traces() {
			w.emit(trace.Wait, to, w.ex.wall()-blocked, 0, -1)
		}
		w.tracePlanned(trace.Send, to, m)
		return nil
	case <-w.ex.ctx.Done():
		return w.ex.ctx.Err()
	}
}

// tracePlanned records the departure or arrival of one planned message.
// Protocol traffic (negative tags: reduce gathers, barriers) is invisible to
// the cost model, so it is excluded — keeping Send/Recv events one for one
// with the simulator's trace.
func (w *worker) tracePlanned(k trace.Kind, peer int, m message) {
	if w.traces() && m.req >= 0 && !w.mute {
		w.emit(k, peer, 0, w.attrBytes, m.req)
	}
}

// recv takes the next message on the edge from->proc and verifies it
// matches the expected requirement tag and per-edge sequence number.
func (w *worker) recv(from, wantReq int, what string) (message, error) {
	ch := w.ex.mail[from][w.proc]
	var m message
	select {
	case m = <-ch:
	default:
		h := w.ex.wd.block(w.proc, "recv", from, what)
		blocked := w.ex.wall()
		select {
		case m = <-ch:
			w.ex.wd.unblock(h)
			if w.traces() {
				w.emit(trace.Wait, from, w.ex.wall()-blocked, 0, -1)
			}
		case <-w.ex.ctx.Done():
			w.ex.wd.unblock(h)
			return message{}, w.ex.ctx.Err()
		}
	}
	w.ex.wd.tick()
	wantSeq := w.recvSeq[from]
	w.recvSeq[from]++
	if m.req != wantReq || m.seq != wantSeq {
		return message{}, &ProtocolError{Proc: w.proc, From: from,
			WantReq: wantReq, GotReq: m.req, WantSeq: wantSeq, GotSeq: m.seq, What: what}
	}
	w.tracePlanned(trace.Recv, from, m)
	return m, nil
}

// ---------------------------------------------------------------------------
// eval.Ops: each operation of the shared schedule, as real traffic. Where the
// operations fall, and in which order, is eval's decision alone.

// Tick fires after every loop iteration: progress for the watchdog plus
// cancellation/deadline enforcement (and a crash site).
func (w *worker) Tick() error {
	w.ex.wd.tick()
	if h := w.ex.hooks.tick; h != nil {
		if err := h(w.proc); err != nil {
			return err
		}
	}
	if err := w.CrashSite(); err != nil {
		return err
	}
	if w.ex.ended.Load() {
		return w.ex.ctx.Err()
	}
	return nil
}

// Vectorized performs one hoisted communication. Its trace attribution
// carries the bytes the cost model charges per message; ring slots of shift
// non-participants are muted (the cost model does not charge them, and
// neither does the simulator's trace).
func (w *worker) Vectorized(req *comm.Requirement, op eval.VectorizedOp) error {
	if w.charges() {
		w.acct.Vectorized(req, op)
	}
	if w.traces() {
		per := op.Bytes
		switch op.Kind {
		case eval.VecShift:
			per = op.PerProc
			w.mute = op.Participants.Count() < 2 || !op.Participants.Contains(w.proc)
		case eval.VecExchange:
			if n := int64(op.Src.Count()); n > 0 && op.Bytes/n > 0 {
				per = op.Bytes / n
			}
		}
		w.setAttr(req.Stmt.ID, req.Class, per)
	}
	err := w.vectorizedComm(req, op)
	w.clearAttr()
	return err
}

// vectorizedComm performs the real traffic of one hoisted requirement in the
// topology the cost model charges: a ring exchange for shifts,
// root-to-members for broadcasts, owner-to-consumer messages for general
// aggregated communication.
func (w *worker) vectorizedComm(req *comm.Requirement, op eval.VectorizedOp) error {
	what := w.desc(req)
	dropped := w.ex.hooks.dropSend != nil && w.ex.hooks.dropSend(w.proc, req)
	switch op.Kind {
	case eval.VecShift:
		if w.ex.n < 2 {
			return nil
		}
		next := (w.proc + 1) % w.ex.n
		prev := (w.proc - 1 + w.ex.n) % w.ex.n
		if !dropped {
			if err := w.send(next, message{req: req.ID}, what); err != nil {
				return err
			}
		}
		_, err := w.recv(prev, req.ID, what)
		return err

	case eval.VecBcast:
		_, _, err := w.multicast(op.From, op.Dst, message{req: req.ID}, what, dropped)
		return err

	case eval.VecExchange:
		srcProcs := op.Src.Procs()
		if len(srcProcs) == 0 {
			return nil
		}
		var rcv []int
		for _, p := range op.Dst.Procs() {
			if !op.Src.Contains(p) {
				rcv = append(rcv, p)
			}
		}
		// Each receiver pairs with a deterministic owner.
		for i, d := range rcv {
			s := srcProcs[i%len(srcProcs)]
			if w.proc == s && !dropped {
				if err := w.send(d, message{req: req.ID}, what); err != nil {
					return err
				}
			}
		}
		for i, d := range rcv {
			if w.proc == d {
				if _, err := w.recv(srcProcs[i%len(srcProcs)], req.ID, what); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// multicast delivers m from root to every other member of dst (the cost
// model's Multicast excludes the source as well). A receiving member gets the
// message back, for verification (received reports it).
func (w *worker) multicast(root int, dst dist.ProcSet, m message, what string, dropped bool) (got message, received bool, err error) {
	if w.proc == root {
		for _, p := range dst.Procs() {
			if p == root || dropped {
				continue
			}
			if err := w.send(p, m, what); err != nil {
				return got, false, err
			}
		}
		return got, false, nil
	}
	if !dst.Contains(w.proc) {
		return got, false, nil
	}
	got, err = w.recv(root, m.req, what)
	return got, err == nil, err
}

// verify reports a peer's value that differs bitwise from this worker's:
// replicated execution computes the same value everywhere, so it must not.
// what and detail together name the value (joined only on failure).
func (w *worker) verify(got message, bits uint64, peer int, what, detail string) error {
	if got.hasVal && got.bits != bits {
		return &DivergenceError{Proc: w.proc, Peer: peer, What: what + detail,
			Got: math.Float64frombits(got.bits), Want: math.Float64frombits(bits)}
	}
	return nil
}

// Reduce is the collective combine of a reduction scalar: a star gather to a
// deterministic root and a result broadcast back, with the partial values
// compared bitwise (replicated execution makes every partial the full value,
// so they must all agree).
func (w *worker) Reduce(m *core.ScalarMapping, set dist.ProcSet) error {
	if w.charges() {
		w.acct.Reduce(m, set)
	}
	procs := set.Procs()
	if len(procs) < 2 || !set.Contains(w.proc) {
		return nil
	}
	if w.traces() && m.Def != nil && m.Def.Stmt != nil {
		w.setAttr(m.Def.Stmt.ID, dist.CommNone, 0)
	}
	defer w.clearAttr()
	what := "combine " + m.Def.Var.Name
	root := procs[0]
	val := message{req: tagReduce, hasVal: true, bits: math.Float64bits(w.st.Scalar(m.Def.Var))}
	if w.proc != root {
		if err := w.send(root, val, what); err != nil {
			return err
		}
	} else {
		for _, p := range procs[1:] {
			got, err := w.recv(p, tagReduce, what)
			if err == nil {
				err = w.verify(got, val.bits, p, what, "")
			}
			if err != nil {
				return err
			}
		}
	}
	val.req = tagReduceResult
	got, received, err := w.multicast(root, set, val, what, false)
	if received {
		err = w.verify(got, val.bits, root, what, "")
	}
	if err == nil && w.proc == root && w.traces() {
		// One Reduce event per collective at the gathering root —
		// structurally identical to the simulator's emission.
		w.emit(trace.Reduce, -1, 0, w.elemBytes()*int64(len(procs)), -1)
	}
	return err
}

// CopyOut broadcasts a lastprivate scalar's final value from the final
// iteration's owner. Replicated execution means every worker already holds
// the value; the real broadcast verifies bitwise agreement with the owner.
func (w *worker) CopyOut(m *core.ScalarMapping, root int) error {
	if w.charges() {
		w.acct.CopyOut(m, root)
	}
	what := "copy-out " + m.Def.Var.Name
	val := message{req: tagCopyOut, hasVal: true, bits: math.Float64bits(w.st.Scalar(m.Def.Var))}
	// Protocol-tagged traffic is invisible to tracePlanned, so the events
	// are emitted manually — one Send per destination at the root, one Recv
	// per receiver, structurally identical to machine.Multicast's emission.
	if w.traces() && m.Def.Stmt != nil {
		w.setAttr(m.Def.Stmt.ID, dist.CommBcast, w.elemBytes())
	}
	defer w.clearAttr()
	all := dist.AllProcs(w.st.Grid())
	got, received, err := w.multicast(root, all, val, what, false)
	if received {
		err = w.verify(got, val.bits, root, what, "")
	}
	if err != nil || !w.traces() {
		return err
	}
	if received {
		w.emit(trace.Recv, root, 0, w.elemBytes(), -1)
	}
	if w.proc == root {
		for _, p := range all.Procs() {
			if p != root {
				w.emit(trace.Send, p, 0, w.elemBytes(), -1)
			}
		}
	}
	return nil
}

// TreeMerge walks the deterministic tree of a privatized combine's merge
// (already folded locally, identically on every worker), each hop's loser
// shipping the FNV checksum of its pre-merge partial row for the winner to
// verify bitwise.
func (w *worker) TreeMerge(c *spmd.Combine, elems int64, hops []eval.MergeHop) error {
	if w.charges() {
		w.acct.TreeMerge(c, elems, hops)
	}
	what := "merge " + c.Var().Name
	for _, h := range hops {
		if w.proc == h.Loser {
			if err := w.send(h.Winner, message{req: tagMerge, hasVal: true, bits: h.Check}, what); err != nil {
				return err
			}
		}
		if w.proc == h.Winner {
			got, err := w.recv(h.Loser, tagMerge, what)
			if err == nil {
				err = w.verify(got, h.Check, h.Loser, what, "")
			}
			if err != nil {
				return err
			}
		}
	}
	if w.traces() && w.proc == 0 && len(hops) > 0 {
		// One Reduce event per merge at the tree root, stamped with the
		// merged-row count — structurally identical to the simulator's
		// TreeMerge emission (protocol-tagged hop traffic is invisible to
		// tracePlanned, like the collective's gather).
		w.ex.rec.Emit(w.proc, trace.Event{
			Time: w.ex.wall(), Bytes: elems * w.elemBytes() * int64(len(hops)),
			Kind: trace.Reduce, Class: dist.CommNone,
			Proc: int32(w.proc), Peer: -1, Stmt: int32(c.Red.Stmt.ID), Req: -1,
			Merged: int32(w.ex.n),
		})
	}
	return nil
}

// Guard has no traffic: only the accountant pays it.
func (w *worker) Guard(req *comm.Requirement) {
	if w.charges() {
		w.acct.Guard(req)
	}
}

// Transfer sends the element of one per-instance requirement now, as the
// account charges it: point-to-point (a self-send uses the self edge, which
// the cost model charges too) or by multicast. The message carries the
// element's value — evaluated on the pre-statement image, identical on every
// worker under replicated execution — and each receiver checks it bitwise
// against its own.
func (w *worker) Transfer(req *comm.Requirement, op eval.InstanceOp) error {
	if w.charges() {
		w.acct.Transfer(req, op)
	}
	if w.proc != op.From && !op.Dst.Contains(w.proc) {
		return nil
	}
	m := message{req: req.ID}
	if v, err := w.st.UseValue(req); err == nil {
		// (An error is the statement's own, and its semantics surface it; the
		// message just carries nothing to check.)
		m.bits, m.hasVal = math.Float64bits(v), true
	}
	what := w.desc(req)
	dropped := w.ex.hooks.dropSend != nil && w.ex.hooks.dropSend(w.proc, req)
	w.setAttr(req.Stmt.ID, req.Class, op.Bytes)
	defer w.clearAttr()
	var got message
	var received bool
	var err error
	if to, one := op.Dst.IsSingle(); !one {
		got, received, err = w.multicast(op.From, op.Dst, m, what, dropped)
	} else {
		if w.proc == op.From && !dropped {
			err = w.send(to, m, what)
		}
		if w.proc == to && err == nil {
			got, err = w.recv(op.From, req.ID, what)
			received = err == nil
		}
	}
	if !received || !m.hasVal {
		return err
	}
	return w.verify(got, m.bits, op.From, what, "")
}

// Compute is traced on the processors that execute the instance, with the
// cost model's charge as duration: noise-free attribution for the timeline.
func (w *worker) Compute(st *ir.Stmt, set dist.ProcSet, flops int) {
	if w.charges() {
		w.acct.Compute(st, set, flops)
	}
	w.traceCompute(st, set, flops)
}

func (w *worker) traceCompute(st *ir.Stmt, set dist.ProcSet, flops int) {
	if flops > 0 && w.traces() && set.Contains(w.proc) {
		w.setAttr(st.ID, dist.CommNone, 0)
		w.emit(trace.Compute, -1, float64(flops)*w.ex.cfg.Params.FlopTime, 0, -1)
		w.clearAttr()
	}
}

// Iteration is the accountant's charges, this worker's Compute events, and
// the tick: a quiet iteration has no traffic. In chaos mode (a crash site per
// tick), when tracing or under a tick hook each iteration is closed on its
// own; otherwise the strip's charges are one operation, and its end the one
// watchdog tick and cancellation poll.
func (w *worker) Iteration(charges []eval.Charge, n int64) (int64, error) {
	if w.ex.chaos || w.ex.rec != nil || w.ex.hooks.tick != nil {
		return eval.EachIteration(n, func() error {
			if w.charges() {
				w.acct.Charges(charges, 1)
			}
			for i := 0; i < len(charges) && w.traces(); i++ {
				c := &charges[i]
				w.traceCompute(c.Stmt, c.Set, c.Flops) // a guard has no flops, and no event
			}
			return w.Tick()
		})
	}
	if w.charges() {
		w.acct.Charges(charges, n)
	}
	return n, w.Tick()
}

// AllToAll realizes an executable redistribution (the mapping update has
// already been applied to every worker's state) as a barrier.
func (w *worker) AllToAll(st *ir.Stmt) error {
	if w.charges() {
		w.acct.AllToAll(st)
	}
	return w.starBarrier(tagBarrier, tagRelease, "redistribute "+st.Redist.Array.Name)
}

// starBarrier synchronizes all workers through processor 0: members send
// tagIn and wait for tagOut, the coordinator collects every tagIn before
// releasing anyone. Used by redistribution and by coordinated checkpoints.
func (w *worker) starBarrier(tagIn, tagOut int, what string) error {
	if w.ex.n < 2 {
		return nil
	}
	if w.proc == 0 {
		for p := 1; p < w.ex.n; p++ {
			if _, err := w.recv(p, tagIn, what); err != nil {
				return err
			}
		}
		for p := 1; p < w.ex.n; p++ {
			if err := w.send(p, message{req: tagOut}, what); err != nil {
				return err
			}
		}
		return nil
	}
	if err := w.send(0, message{req: tagIn}, what); err != nil {
		return err
	}
	_, err := w.recv(0, tagOut, what)
	return err
}
