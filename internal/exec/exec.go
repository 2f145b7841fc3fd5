// Package exec is the concurrent SPMD execution backend: one goroutine per
// simulated processor runs the planned SPMD program for real, exchanging
// messages over channel-based bounded mailboxes wherever the communication
// plan (comm.Requirement) says data must move.
//
// Execution is owner-computes, as in the paper (§2, §2.2). Each worker's
// eval.State interprets for its own processor (State.InterpretFor): it runs
// the value semantics of the statement instances its processor's execution
// sets name, and no others, and it reads remote data only from messages. The
// plan's messages carry the data: a per-instance transfer the use's element,
// a vectorized one the section its receiver reads (State.Section), a tree
// merge each hop's partial row, a copy-out the final value; each receiver
// stores what it gets in its image before the instances that read it. The
// final memory is gathered from the workers that hold each value
// (eval.Gather). Data the plan does not move, yet an owner-computes run needs
// — an element a section's other owner holds, a redistributed element, and
// the schedule's uncharged moves (eval.Ops.Move: a predicate's outcome, a
// collective reduction's accumulator, a merge's rows), whose sender and
// receivers it resolves — travels in protocol messages, which the cost model
// does not charge and the trace does not show. Every such move, planned or
// not, is one primitive (deliver): one sender sends one payload under a tag
// to the processors a destination rule names, and each receiver stores it in
// its slot.
//
// Every worker walks the same schedule, resolving every execution set and
// communication decision itself (what every processor resolves is computed
// everywhere), but where the plan proves a worker that keeps no account takes
// part in nothing (the paper's §4): in the loops whose bounds shrink
// (spmd.ShrinkableLoops) it walks only its own iterations, the others
// involving it in nothing — no transfer, predicate, hoisted communication,
// combine or computed instance; and outside a predicate's execution set it
// leaves the IF aside where nothing the IF issues involves it either
// (spmd.Program.SkippableIfs, eval's State.aside), a loop of such IFs whole
// where their sets do not move with its index (AllOrNoneLoops). So each
// worker issues the operations of the global order it takes part in, in that
// order — the property that makes the rendezvous below deadlock-free. One
// planned message is one physical message: message vectorization is the
// compiler's placement decision, and a per-instance transfer the plan left
// inside a loop is sent at once. Sends never wait for a later operation, so no transfer is
// in flight at a crash site, and immediate sends cannot deadlock: the worker
// furthest behind in the global order can always proceed — a message it waits
// for was sent by a peer already at or past that operation, and its receiver,
// no further behind, has taken every message of an earlier operation. A
// protocol message is one more such message, sent by a worker that can send
// it when it reaches the operation.
//
// A worker outside a predicate's execution set learns the outcome and walks
// the branch every other one walks, unless it leaves the IF aside; the
// argument holds then too. The plan shows statically that nothing in such an
// IF has an end outside the set: its branches hold assignments alone (no
// nested hoisted communication, combine or copy-out), none with a
// per-instance transfer or a privatizable reduction's operands, none computed
// everywhere, each on a part of the set; any other IF is walked as before. A
// hand-off fires, and holders move, where the set does not hold an
// accumulator the predicate reads or a branch assigns a scalar on a set that
// does not hold it: every worker checks alike, from sets all resolve, that
// neither can happen, and walks the IF where one can. So the outcome goes to
// exactly the workers outside the set that walk the IF — the account keepers
// and, where the check fails, all of them — a worker that leaves the IF aside
// sends and awaits nothing of it, and its holders, write stamps and image are
// what walking would have left. An outcome names its IF instance: a worker
// that missed one fails the run at the next.
//
// The interpretation core — value semantics, execution sets, communication
// decisions, who computes what, and the schedule of operations (eval.Ops) —
// is internal/eval's and shared with the sequential simulator (internal/sim),
// whose one State interprets for every processor: this package implements
// each operation as real traffic and knows nothing of their order.
// Communication statistics are the simulator's by construction: worker 0,
// which observes every operation in program order like the simulator does, is
// the accountant (in chaos mode every worker keeps one: RunOptions.Keepers),
// handing each one to the same eval.Account the simulator charges before
// transmitting it (one goroutine owns the account, so it needs no locking).
// That is what lets the differential oracle (Diff) demand bit-for-bit
// agreement of memory, statistics, simulated time and, on a traced run, the
// per-statement time attribution the account keeps. The real
// channel traffic is checked independently, through per-edge sequence
// numbers, requirement tags, and the watchdog.
//
// A traced run records only what the workers alone observe, in wall time:
// each worker's send and receive of a message the cost model charges
// (tracePlanned), and each wait blocked on a peer. The cost model's own
// events — computation, reductions, merges, checkpoints, restarts, faults —
// are the simulator's trace; Diff ties the two through Stats, the planned
// messages per class, and the per-statement time.
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
// so no retry of one could be checked against it, and execution is
// deterministic, so a retry would meet the same panic or wedge again.
package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
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
// backend takes every field but the simulator's MaxSeconds.
type Config = eval.RunOptions

// Result is the one run outcome (see eval.Report).
type Result = eval.Report

// hooks are the package's test seams, passed to run beside the configuration
// (Run passes none): dropSend suppresses a worker's sends for a requirement,
// wedging its receivers on purpose; drop takes a requirement out of the run on
// both ends — no message, no store — while the accountant still charges it,
// so that only memory can tell; tick runs at every loop-iteration tick;
// sent sees the tag of every message a worker sends (from every worker's
// goroutine); done sees the workers' States after a run that succeeded;
// mailboxDepth overrides DefaultMailboxDepth.
type hooks struct {
	dropSend     func(proc int, req *comm.Requirement) bool
	drop         func(req *comm.Requirement) bool
	tick         func(proc int) error
	sent         func(tag int)
	done         func(states []*eval.State)
	mailboxDepth int
}

// message is one mailbox entry. Each directed edge carries an independent
// sequence number; receivers verify both the tag and the sequence, so any
// divergence in the workers' planned event order is a ProtocolError, not a
// silent mismatch. A payload of one value travels in val, a longer one in
// vals, the sending edge's reused buffer (edge.payload), and an empty one as
// vals = &noVals: the count is always known, so a receiver can check that it
// gets as many values as it expects (deliver) without a count field, which
// would widen every mailbox slot by a third.
type message struct {
	req  int32  // comm.Requirement ID, or a negative protocol tag
	seq  uint32 // per-edge sequence number (modulo 2^32)
	val  float64
	vals *[]float64
}

// noVals is the payload of a message that carries no values.
var noVals []float64

// edge is one directed mailbox and the buffer its sender fills payloads of
// more than one value into. The buffer is reused once the receiver has read
// every payload sent on the edge (out), so a run allocates one per edge in
// use, not one per message.
type edge struct {
	ch  chan message
	buf *[]float64
	out atomic.Int32
}

// payload returns the edge's buffer holding vals, for one message.
func (e *edge) payload(vals []float64) *[]float64 {
	if e.buf == nil || e.out.Load() != 0 {
		e.buf = new([]float64)
	}
	e.out.Add(1)
	*e.buf = append((*e.buf)[:0], vals...)
	return e.buf
}

// Protocol tags for traffic that does not belong to a planned requirement.
const (
	tagBarrier     = -4  // member -> coordinator redistribution barrier
	tagRelease     = -5  // coordinator -> member barrier release
	tagCkpt        = -6  // member -> coordinator checkpoint barrier
	tagCkptRelease = -7  // coordinator -> member checkpoint release
	tagRefetch     = -8  // survivor -> restarted recovery refetch
	tagCopyOut     = -9  // lastprivate final-value broadcast, root -> member
	tagMerge       = -10 // privatized-reduction tree-merge hop, loser -> winner
	tagMerged      = -11 // the merged row, processor 0 -> every other
	tagSection     = -12 // section elements no planned message carries
	tagBranch      = -13 // a predicate's outcome, to a processor that cannot evaluate it
	tagHandOff     = -14 // a collective reduction's accumulator, holder -> reader, updater or member
	tagRedist      = -15 // an element a redistribution moves, old owner -> new
)

// moveTags is the tag of each kind of protocol move (eval.Ops.Move).
var moveTags = [...]int{eval.MoveOutcome: tagBranch, eval.MoveHandOff: tagHandOff,
	eval.MoveMergeHop: tagMerge, eval.MoveMerged: tagMerged}

// tagNames names the protocol tags, for reports and the traffic census.
var tagNames = map[int]string{
	tagBarrier: "barrier", tagRelease: "release", tagCkpt: "ckpt",
	tagCkptRelease: "ckpt-release", tagRefetch: "refetch", tagCopyOut: "copy-out",
	tagMerge: "merge", tagMerged: "merged", tagSection: "section",
	tagBranch: "branch", tagHandOff: "hand-off", tagRedist: "redist",
}

type executor struct {
	cfg   Config
	hooks hooks
	ctx   context.Context
	ended *atomic.Bool // eval.Ended(ctx): what Tick polls
	n     int

	// edges[from*n+to] is the bounded mailbox of one directed edge.
	edges []edge
	wd    *watchdog
	// reqs are the planned requirements, by ID: what a report names a
	// planned tag by (name).
	reqs []*comm.Requirement

	// rec, when non-nil, receives the workers' Send, Recv and Wait events in
	// wall time; start anchors the time axis at run start.
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

// name names the communication a message of tag belongs to, for a report: a
// planned requirement by its String, a protocol tag by its tagNames entry.
func (ex *executor) name(tag int) string {
	if tag >= 0 {
		return ex.reqs[tag].String()
	}
	return tagNames[tag]
}

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
		cfg:   cfg,
		hooks: hk,
		n:     n,
		reqs:  p.Plan.Reqs,
		chaos: cfg.Fault.Active() || cfg.CheckpointInterval > 0,
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
	ex.wd = newWatchdog(n, ex.name)
	ex.edges = make([]edge, n*n)
	for i := range ex.edges {
		ex.edges[i].ch = make(chan message, depth)
	}
	workers := make([]*worker, n)
	states := make([]*eval.State, n)
	keepers := cfg.Keepers(p.Grid())
	for i := range workers {
		st, err := cfg.NewState(p)
		if err != nil {
			return nil, fmt.Errorf("exec: %w", err)
		}
		st.InterpretFor(i)
		seqs := make([]uint32, 2*n)
		states[i] = st
		workers[i] = &worker{
			ex:       ex,
			proc:     i,
			st:       st,
			sendSeq:  seqs[:n],
			recvSeq:  seqs[n:],
			attrStmt: -1,
			out:      make([]int32, 2*n),
		}
		if keepers.Contains(i) {
			workers[i].acct = eval.NewAccount(st, cfg)
		}
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
		HotStatements:   workers[0].acct.HotStatements(),
		Workers:         n,
		TrafficMessages: ex.traffic.Load(),
		Trace:           ex.rec,
		Restarts:        ex.restarts,
	}
	res.Scalars, res.Arrays = eval.Gather(states)
	if hk.done != nil {
		hk.done(states)
	}
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

// checkConsistency verifies, where every worker kept an account (chaos
// mode), that each account's simulated time and statistics are bitwise
// worker 0's: proof that the replicated fault draws never diverged.
func checkConsistency(workers []*worker) error {
	ref := workers[0]
	for p := 1; p < len(workers); p++ {
		w := workers[p]
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
	// st interprets for this worker's processor only (eval.State.InterpretFor).
	st *eval.State
	// sendSeq[to] / recvSeq[from] are the per-edge sequence counters.
	sendSeq, recvSeq []uint32
	// out[p] counts, for the communication in hand, the values this worker
	// receives from p; pair[d] is the owner an exchange pairs receiver d with
	// (-1: none).
	out  []int32
	pair []int
	// pack[p] and got[p] are exchange's payloads to and from processor p.
	pack, got [][]float64

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

// dropped reports whether the drop seam takes req out of the run.
func (w *worker) dropped(req *comm.Requirement) bool {
	return w.ex.hooks.drop != nil && w.ex.hooks.drop(req)
}

// silent reports whether the dropSend seam mutes this worker's sends for req.
func (w *worker) silent(req *comm.Requirement) bool {
	return w.ex.hooks.dropSend != nil && w.ex.hooks.dropSend(w.proc, req)
}

// send delivers m on the edge proc->to, blocking when the mailbox is full.
// The blocked operation registers with the watchdog only after the
// non-blocking fast path fails.
func (w *worker) send(to int, m message) error {
	if h := w.ex.hooks.sent; h != nil {
		h(int(m.req))
	}
	m.seq = w.sendSeq[to]
	w.sendSeq[to]++
	ch := w.ex.edges[w.proc*w.ex.n+to].ch
	select {
	case ch <- m:
		w.ex.traffic.Add(1)
		w.ex.wd.tick()
		w.tracePlanned(trace.Send, to, m)
		return nil
	default:
	}
	h := w.ex.wd.block(w.proc, "send", to, int(m.req))
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

// deliver is the one way a payload moves between workers: the worker from
// sends vals under tag to every processor the rule to names, in ascending
// order — itself too, over its self edge, when to names it — unless mute; each
// of them takes the payload into vals, its slot, and deliver reports whether
// this worker did. One value travels in the message itself, more in the
// sending edge's reused buffer; a receiver checks that it gets as many values
// as its slot holds.
func (w *worker) deliver(tag, from int, to func(p int) bool, vals []float64, mute bool) (bool, error) {
	if w.proc == from && !mute {
		m := message{req: int32(tag)}
		for p := 0; p < w.ex.n; p++ {
			if !to(p) {
				continue
			}
			switch len(vals) {
			case 0:
				m.vals = &noVals
			case 1:
				m.val = vals[0]
			default:
				m.vals = w.ex.edges[w.proc*w.ex.n+p].payload(vals)
			}
			if err := w.send(p, m); err != nil {
				return false, err
			}
		}
	}
	if !to(w.proc) {
		return false, nil
	}
	m, err := w.recv(from, tag)
	if err != nil {
		return false, err
	}
	n := 1
	if m.vals != nil {
		n = len(*m.vals)
	}
	if m.vals != nil && m.vals != &noVals {
		defer w.ex.edges[from*w.ex.n+w.proc].out.Add(-1)
	}
	if n != len(vals) {
		return false, &ProtocolError{Proc: w.proc, From: from, WantReq: tag, GotReq: int(m.req),
			WantSeq: uint64(len(vals)), GotSeq: uint64(n), What: w.ex.name(tag) + " (payload length)"}
	}
	if m.vals != nil {
		copy(vals, *m.vals)
	} else {
		vals[0] = m.val
	}
	return true, nil
}

// only is the destination rule naming processor d alone.
func only(d int) func(p int) bool { return func(p int) bool { return p == d } }

// tracePlanned records the departure or arrival of one message the cost
// model charges: a planned requirement's, or a copy-out's (a broadcast of no
// requirement). Other protocol traffic (barriers, hand-offs, merge hops)
// is invisible to the cost model, so it is excluded — keeping Send/Recv events
// one for one with the simulator's trace.
func (w *worker) tracePlanned(k trace.Kind, peer int, m message) {
	req := int(m.req)
	if req == tagCopyOut {
		req = -1
	} else if req < 0 {
		return
	}
	if w.traces() && !w.mute {
		w.emit(k, peer, 0, w.attrBytes, req)
	}
}

// recv takes the next message on the edge from->proc and verifies it
// matches the expected requirement tag and per-edge sequence number.
func (w *worker) recv(from, wantReq int) (message, error) {
	ch := w.ex.edges[from*w.ex.n+w.proc].ch
	var m message
	select {
	case m = <-ch:
	default:
		h := w.ex.wd.block(w.proc, "recv", from, wantReq)
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
	if int(m.req) != wantReq || m.seq != wantSeq {
		return message{}, &ProtocolError{Proc: w.proc, From: from,
			WantReq: wantReq, GotReq: int(m.req), WantSeq: uint64(wantSeq), GotSeq: uint64(m.seq), What: w.ex.name(wantReq)}
	}
	w.tracePlanned(trace.Recv, from, m)
	return m, nil
}

// exchange performs the data traffic of one communication: every element of
// mv goes from the first processor of its From to each processor of its To
// outside From, in one message per (sender, receiver) pair. A pair planned
// names is the plan's message, tagged tag and sent even when it carries
// nothing; any other pair with data is protocol traffic (tagSection). The
// two ends of a pair list its elements in the same order (eval.Moves), so
// they agree on its values. mute suppresses this worker's sends (the dropSend
// seam).
func (w *worker) exchange(tag int, planned func(from, to int) bool, mv *eval.Moves, mute bool) error {
	n, me := w.ex.n, w.proc
	if w.pack == nil {
		w.pack, w.got = make([][]float64, n), make([][]float64, n)
	}
	for p := 0; p < n; p++ {
		w.pack[p], w.got[p] = w.pack[p][:0], w.got[p][:0]
	}
	cnt := w.out[:n] // values from each processor
	clear(cnt)
	for i := range mv.Elems {
		m := &mv.Elems[i]
		if o := mv.First[m.From]; o != me {
			cnt[o]++
			continue
		}
		f, t := mv.Sets[m.From], mv.Sets[m.To]
		for d := 0; d < n; d++ {
			if t.Contains(d) && !f.Contains(d) {
				w.pack[d] = append(w.pack[d], *m.At)
			}
		}
	}
	tagOf := func(from, to int) (int, bool) {
		if planned != nil && planned(from, to) {
			return tag, true
		}
		return tagSection, false
	}
	for d := 0; d < n; d++ {
		if t, plan := tagOf(me, d); d != me && (len(w.pack[d]) > 0 || plan) {
			if _, err := w.deliver(t, me, only(d), w.pack[d], mute); err != nil {
				return err
			}
		}
	}
	received := false
	for o := 0; o < n; o++ {
		t, plan := tagOf(o, me)
		if o == me || (cnt[o] == 0 && !plan) {
			continue
		}
		w.got[o] = slices.Grow(w.got[o], int(cnt[o]))[:cnt[o]]
		if _, err := w.deliver(t, o, only(me), w.got[o], false); err != nil {
			return err
		}
		received = received || cnt[o] > 0
	}
	if !received {
		return nil
	}
	clear(cnt) // now each source's payload cursor
	for i := range mv.Elems {
		m := &mv.Elems[i]
		if o := mv.First[m.From]; o != me {
			*m.At = w.got[o][cnt[o]]
			cnt[o]++
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// eval.Ops: each operation of the shared schedule, as real traffic. Where the
// operations fall, and in which order, is eval's decision alone; the messages
// carry the values the receivers' instances read, and each receiver stores
// them in its image.

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
	if w.dropped(req) {
		return nil
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

// vectorizedComm moves the section of one hoisted requirement. The plan's
// messages keep the topology the cost model charges — a ring for shifts,
// running the way the data flows, root-to-members for broadcasts, each
// receiver paired with an owner for general aggregated communication — and
// carry what their sender owns of what their receiver reads; elements another
// owner holds follow in protocol messages (exchange).
func (w *worker) vectorizedComm(req *comm.Requirement, op eval.VectorizedOp) error {
	n := w.ex.n
	var planned func(from, to int) bool
	switch op.Kind {
	case eval.VecShift:
		if n < 2 {
			return nil
		}
		planned = func(from, to int) bool { return to == (from+op.Ring+n)%n }

	case eval.VecBcast:
		planned = func(from, to int) bool { return from == op.From && to != from && op.Dst.Contains(to) }

	case eval.VecExchange:
		// Each receiver outside the owners pairs with a deterministic owner.
		nsrc := op.Src.Count()
		if nsrc == 0 {
			return nil
		}
		if w.pair == nil {
			w.pair = make([]int, 2*n)
		}
		pair, srcs := w.pair[:n], w.pair[n:n]
		op.Src.Each(func(p int) { srcs = append(srcs, p) })
		i := 0
		for d := 0; d < n; d++ {
			pair[d] = -1
			if op.Dst.Contains(d) && !op.Src.Contains(d) {
				pair[d] = srcs[i%nsrc]
				i++
			}
		}
		planned = func(from, to int) bool { return pair[to] == from }
	}
	return w.exchange(req.ID, planned, w.st.Section(req), w.silent(req))
}

// Reduce charges the collective combine of a reduction scalar.
// No value travels here: the accumulator was folded in iteration order where
// the updates ran, and the schedule's hand-off has brought its combined value
// to every member of set (Move).
func (w *worker) Reduce(m *core.ScalarMapping, set dist.ProcSet) error {
	if w.charges() {
		w.acct.Reduce(m, set)
	}
	return nil
}

// Move delivers what the schedule resolved, under its kind's tag. An
// outcome's magnitude names the IF instance it answers: a receiver that
// expected another reports it.
func (w *worker) Move(kind eval.MoveKind, from int, in, except dist.ProcSet, payload []float64) error {
	tag, want := moveTags[kind], 0.0
	if kind == eval.MoveOutcome {
		want = math.Abs(payload[0])
	}
	got, err := w.deliver(tag, from, func(p int) bool { return in.Contains(p) && !except.Contains(p) }, payload, false)
	if got && want != math.Abs(payload[0]) && kind == eval.MoveOutcome {
		return &ProtocolError{Proc: w.proc, From: from, WantReq: tag, GotReq: tag,
			WantSeq: uint64(want), GotSeq: uint64(math.Abs(payload[0])), What: w.ex.name(tag) + " (instance)"}
	}
	return err
}

// CopyOut broadcasts a lastprivate scalar's final value from the final
// iteration's owner, and every receiver stores it. The cost model charges the
// broadcast (machine.Multicast), so its messages are traced (tracePlanned).
func (w *worker) CopyOut(m *core.ScalarMapping, root int) error {
	if w.charges() {
		w.acct.CopyOut(m, root)
	}
	if w.traces() && m.Def.Stmt != nil {
		w.setAttr(m.Def.Stmt.ID, dist.CommBcast, w.elemBytes())
	}
	defer w.clearAttr()
	_, err := w.deliver(tagCopyOut, root, func(p int) bool { return p != root }, w.st.ScalarSlot(m.Def.Var), false)
	return err
}

// Operands brings a privatized elementwise update's operand, which the plan
// ships nowhere, to the processor that accumulates it (protocol traffic).
func (w *worker) Operands(req *comm.Requirement) error {
	if w.dropped(req) {
		return nil
	}
	return w.exchange(tagSection, nil, w.st.Section(req), w.silent(req))
}

// TreeMerge charges the merge whose rows the schedule moved (Move).
func (w *worker) TreeMerge(c *spmd.Combine, elems int64) error {
	if w.charges() {
		w.acct.TreeMerge(c, elems)
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
// the cost model charges too) or by multicast, which excludes the sender. The
// message carries the sender's element, which each receiver stores where its
// instance reads it.
func (w *worker) Transfer(req *comm.Requirement, op eval.InstanceOp) error {
	if w.charges() {
		w.acct.Transfer(req, op)
	}
	if w.proc != op.From && !op.Dst.Contains(w.proc) || w.dropped(req) {
		return nil
	}
	// (An address that cannot be evaluated is the statement's own error,
	// which its semantics surface; the message then carries nothing.)
	at, _ := w.st.UseAt(req)
	var v [1]float64
	if at != nil {
		v[0] = *at
	}
	w.setAttr(req.Stmt.ID, req.Class, op.Bytes)
	defer w.clearAttr()
	to := func(p int) bool { return p != op.From && op.Dst.Contains(p) }
	if d, one := op.Dst.IsSingle(); one {
		to = only(d)
	}
	got, err := w.deliver(req.ID, op.From, to, v[:], w.silent(req))
	if got && at != nil {
		*at = v[0]
	}
	return err
}

// Compute has no traffic: only the accountant pays it.
func (w *worker) Compute(st *ir.Stmt, set dist.ProcSet, flops int) {
	if w.charges() {
		w.acct.Compute(st, set, flops)
	}
}

// Iteration is the accountant's charges and the tick: a quiet iteration has
// no traffic. In chaos mode (a crash site per tick) or under a tick hook each
// iteration is closed on its own; otherwise the strip's charges are one
// operation, and its end the one watchdog tick and cancellation poll.
func (w *worker) Iteration(charges []eval.Charge, n int64) (int64, error) {
	if w.ex.chaos || w.ex.hooks.tick != nil {
		return eval.EachIteration(n, func() error {
			if w.charges() {
				w.acct.Charges(charges, 1)
			}
			return w.Tick()
		})
	}
	if w.charges() {
		w.acct.Charges(charges, n)
	}
	return n, w.Tick()
}

// AllToAll realizes an executable redistribution, already applied to every
// worker's mapping: each element moves from its old owners to its new ones,
// then a barrier closes the exchange.
func (w *worker) AllToAll(st *ir.Stmt) error {
	if w.charges() {
		w.acct.AllToAll(st)
	}
	if err := w.exchange(tagRedist, nil, w.st.Redistributed(st), false); err != nil {
		return err
	}
	return w.starBarrier(tagBarrier, tagRelease)
}

// starBarrier synchronizes all workers through processor 0: members send
// tagIn and wait for tagOut, the coordinator collects every tagIn before
// releasing anyone. Used by redistribution and by coordinated checkpoints.
func (w *worker) starBarrier(tagIn, tagOut int) error {
	for p := 1; p < w.ex.n; p++ {
		if _, err := w.deliver(tagIn, p, only(0), nil, false); err != nil {
			return err
		}
	}
	_, err := w.deliver(tagOut, 0, func(p int) bool { return p != 0 }, nil, false)
	return err
}
