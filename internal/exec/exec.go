// Package exec is the concurrent SPMD execution backend: one goroutine per
// simulated processor runs the planned SPMD program for real, exchanging
// messages over channel-based bounded mailboxes wherever the communication
// plan (comm.Requirement) says data must move. It shares its entire
// interpretation core — value semantics, execution sets, communication
// decisions — with the sequential simulator (internal/sim) through
// internal/eval, which is what lets the differential oracle (Differ) demand
// bit-for-bit agreement between the two backends.
//
// Execution is replicated: every worker interprets the full program over its
// own memory image, exactly as the simulator interprets it over its single
// global image, so all workers make identical control-flow and
// communication decisions in the same order (the property that makes the
// rendezvous below deadlock-free). Messages carry the communicated value so
// receivers verify, bitwise, that the replicated images have not diverged;
// a final cross-worker sweep verifies complete memory agreement.
//
// The physical transport vectorizes: contiguous per-instance element
// transfers for one (source, destination, statement) — the inner-loop
// pattern the paper's message vectorization targets — coalesce into a
// single batched mailbox message carrying the element count and a checksum
// of the batched values, flushed whenever the batch key changes or other
// planned traffic must flow. The cost-model replay and the trace's exact
// counters are unaffected: the accountant still charges every instance, and
// a flushed batch emits one trace event that stands for Count messages.
//
// Communication statistics are kept exactly comparable with the simulator
// by a deterministic accountant: worker 0 — which observes every planned
// event in program order, like the simulator does — replays the same
// machine.Machine calls with the same arguments. The machine instance is
// owned by that one goroutine, so the accounting needs no locking, and the
// resulting Stats (and simulated clocks) are identical to the sequential
// run by construction. The real channel traffic is verified independently,
// through per-edge sequence numbers, requirement tags, and the watchdog.
//
// Robustness: a worker panic is contained and surfaced as *WorkerError
// with the process intact; a wedged worker set is detected by the stall
// watchdog and reported as *StallError naming the blocked operations; and
// cancellation or deadline on the caller's context unwinds every worker
// (replacing the simulator's ad-hoc simulated-time cutoff with real
// wall-clock enforcement).
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
	"phpf/internal/fault"
	"phpf/internal/ir"
	"phpf/internal/machine"
	"phpf/internal/spmd"
	"phpf/internal/trace"
)

// DefaultMailboxDepth is the default bound of each directed mailbox.
const DefaultMailboxDepth = 64

// DefaultStallTimeout is the default quiet period after which the watchdog
// declares the worker set stalled.
const DefaultStallTimeout = 10 * time.Second

// Config controls a concurrent run.
type Config struct {
	// Params is the machine cost model used for the statistics accounting
	// (zero value = machine.SP2(), mirroring sim.Config).
	Params machine.Params
	// Workers is the requested worker count. The SPMD program is planned
	// for exactly NProcs processors and every planned rendezvous names
	// concrete processor pairs, so the only valid values are 0 (meaning
	// NProcs) and NProcs itself; anything else is a ConfigError rather
	// than a deadlock at the first unmatched send.
	Workers int
	// MailboxDepth bounds each directed mailbox (0 = DefaultMailboxDepth;
	// must be at least 1 so self-sends and ring shifts cannot wedge).
	MailboxDepth int
	// StallTimeout is how long the watchdog waits without any worker
	// progress before declaring a stall (0 = DefaultStallTimeout,
	// negative = watchdog disabled).
	StallTimeout time.Duration
	// Trace, when non-nil, records runtime events (stamped with wall time
	// since run start) into Result.Trace; each worker emits into its own
	// shard, so tracing adds no locking to the hot path and is race-free.
	// Nil keeps the event path emission-free.
	Trace *trace.Options

	// Fault, when non-nil and active, injects the seeded fault plan into
	// the run at two layers. The model layer replays the simulator's fault
	// accounting on every worker (identical seeded draws, so Stats, Time,
	// and fault-event counts agree bitwise with sim for the same plan).
	// The wire layer makes losses, duplicates, and slowdowns physical:
	// keyed per-(src,dst,seq,attempt) draws drop or duplicate real mailbox
	// transmissions, healed by an ack/retransmit protocol with exponential
	// backoff — reproducible for a fixed seed regardless of goroutine
	// interleaving.
	Fault *fault.Plan
	// CheckpointInterval > 0 takes coordinated checkpoints — barrier-
	// aligned dense snapshots of every worker's eval.State — whenever the
	// replayed cost model's simulated clock has advanced that many seconds
	// since the last one, at the same loop-entry boundaries the simulator
	// checkpoints at (so the two backends' checkpoint schedules coincide).
	CheckpointInterval float64
	// MaxRestarts bounds run-level heals: full restarts from the last
	// complete checkpoint after a real worker panic or a watchdog-detected
	// stall. 0 means DefaultMaxRestarts; negative disables healing.
	MaxRestarts int
	// MaxCells caps the total array cells of each worker's memory image
	// (0 = unlimited; see eval.Budget). Every worker holds a full
	// replicated image, so a run's worst-case footprint is
	// MaxCells × 8 bytes × workers. A breach fails the run with a coded
	// E006 diagnostic before the images are allocated.
	MaxCells int64
	// Reduce selects the runtime reduction strategy (mirroring sim.Config):
	// ReduceAuto privatizes every reduction the reduceplan cleared,
	// ReduceCollective forces the §2.3 collective, ReducePrivatize demands
	// privatization and fails (E005) when any recognized reduction is
	// collective-only.
	Reduce core.ReduceMode
	// HardCrashes makes scheduled fail-stop crashes kill the worker
	// goroutine for real (a panic unwinds it mid-protocol) instead of the
	// default coordinated unwind. Recovery then goes through the run-level
	// heal path: crash detection by cancellation/watchdog, restore of all
	// workers from executor-held snapshots, re-spawn with refetch. Wall
	// traces then legitimately double-cover the re-executed interval, so
	// the differential oracle rejects this mode.
	HardCrashes bool

	// Test hooks (package-internal): testDropSend suppresses a worker's
	// sends for a requirement, wedging its receivers on purpose; testHook
	// runs at every loop-iteration tick; testDelayUnit overrides the wall
	// time one slowdown unit costs a sender.
	testDropSend  func(proc int, req *comm.Requirement) bool
	testHook      func(proc int) error
	testDelayUnit time.Duration
}

// DefaultMaxRestarts is the default bound on run-level heals.
const DefaultMaxRestarts = 3

// Result is the outcome of a concurrent run.
type Result struct {
	// Time and Stats are the accountant's replay of the cost model —
	// directly comparable with (and, fault-free, identical to) the
	// sequential simulator's.
	Time  float64
	Stats machine.Stats

	// Final memory (verified identical across all workers).
	Scalars map[string]float64
	Arrays  map[string][]float64

	// Workers is the number of worker goroutines that ran.
	Workers int
	// TrafficMessages counts the real channel messages exchanged (the
	// physical rendezvous, not the cost model's modeled message count).
	TrafficMessages int64

	// Trace holds the recorded event stream when Config.Trace was set
	// (nil otherwise). Events are stamped with wall time; per-class counts
	// of planned communication match the simulator's trace exactly, which
	// the differential oracle verifies.
	Trace *trace.Recorder

	// Restarts counts coordinated checkpoint restores: fail-stop crashes
	// recovered in-band by rolling every worker back to the last snapshot
	// and re-executing with accounting suppressed.
	Restarts int64
	// HardRestarts counts run-level heals (panic or stall recoveries that
	// rebuilt the worker set from executor-held snapshots).
	HardRestarts int
	// Wire-layer fault activity: real transmissions dropped by the seeded
	// injector, retransmissions after RTO expiry, duplicates put on the
	// wire, and duplicates suppressed by sequence number at the receiver.
	// These count physical events; the modeled fault counters live in
	// Stats, where the differential oracle compares them against sim.
	WireDrops         int64
	WireRetransmits   int64
	WireDuplicates    int64
	WireDupSuppressed int64
}

// message is one mailbox entry. Each directed edge carries an independent
// sequence number; receivers verify both the tag and the sequence, so any
// divergence in the workers' planned event order is a ProtocolError, not a
// silent mismatch.
type message struct {
	req    int    // comm.Requirement ID, or a negative protocol tag
	seq    uint64 // per-edge sequence number
	bits   uint64 // math.Float64bits of the payload, or a batch checksum
	count  int32  // batched element count (0 or 1 = a single element)
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
	prog   *spmd.Program
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc
	n      int
	depth  int

	// mail[from][to] is the bounded mailbox for one directed edge.
	mail [][]chan message
	// mach is the accountant's machine; owned exclusively by worker 0's
	// goroutine while workers run, read by Run after they all finish. In
	// chaos mode it is worker 0's replay machine (every worker then owns
	// one; see machines).
	mach *machine.Machine
	wd   *watchdog
	// reqDesc names each planned requirement for watchdog reports.
	reqDesc map[int]string

	// rec, when non-nil, receives wall-time events; start anchors the time
	// axis at run start.
	rec   *trace.Recorder
	start time.Time

	traffic atomic.Int64

	// Chaos mode (an active fault plan or a checkpoint interval): every
	// worker replays the cost model on its own machine with its own
	// injector clone, snapshots its state at coordinated checkpoints, and
	// the wire layer (when the plan has wire faults) drops, duplicates,
	// and delays real transmissions.
	chaos    bool
	winj     *fault.WallInjector
	wire     *wireNet
	machines []*machine.Machine
	// snaps/prevSnaps hold each worker's last two published checkpoint
	// snapshots. A worker writes only its own slot; Run reads them after
	// the workers join (the WaitGroup orders the accesses).
	snaps     []workerSnap
	prevSnaps []workerSnap

	// softRestarts counts coordinated in-band restores (written by worker
	// 0's goroutine, read by Run after the join).
	softRestarts int64

	wireDrops    atomic.Int64
	wireRetrans  atomic.Int64
	wireDups     atomic.Int64
	wireDupSupp  atomic.Int64
	hardRestarts int
}

// wall is the run-relative wall clock in seconds.
func (ex *executor) wall() float64 { return time.Since(ex.start).Seconds() }

// Run executes the program concurrently. The context's cancellation or
// deadline aborts the run (every worker unwinds and the context error is
// returned); a nil ctx means context.Background().
func Run(ctx context.Context, p *spmd.Program, cfg Config) (*Result, error) {
	if p == nil {
		return nil, &ConfigError{Msg: "nil program"}
	}
	if cfg.Params == (machine.Params{}) {
		cfg.Params = machine.SP2()
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	n := p.NProcs()
	if cfg.Workers != 0 && cfg.Workers != n {
		return nil, &ConfigError{Msg: fmt.Sprintf(
			"program is planned for %d processors; Workers must be 0 or %d, got %d (a smaller worker set would deadlock the planned rendezvous)",
			n, n, cfg.Workers)}
	}
	if cfg.MailboxDepth < 0 {
		return nil, &ConfigError{Msg: fmt.Sprintf("MailboxDepth must be >= 0 (0 = default %d), got %d", DefaultMailboxDepth, cfg.MailboxDepth)}
	}
	depth := cfg.MailboxDepth
	if depth == 0 {
		depth = DefaultMailboxDepth
	}
	stall := cfg.StallTimeout
	if stall == 0 {
		stall = DefaultStallTimeout
	}
	if err := cfg.Fault.Validate(); err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	if cfg.Fault.Active() {
		for _, c := range cfg.Fault.Crashes {
			if c.Proc >= n {
				return nil, &ConfigError{Msg: fmt.Sprintf("crash names processor %d; the program runs on %d", c.Proc, n)}
			}
		}
		for _, s := range cfg.Fault.Slowdowns {
			if s.Proc >= n {
				return nil, &ConfigError{Msg: fmt.Sprintf("slowdown names processor %d; the program runs on %d", s.Proc, n)}
			}
		}
	}
	if cfg.CheckpointInterval < 0 || math.IsNaN(cfg.CheckpointInterval) || math.IsInf(cfg.CheckpointInterval, 0) {
		return nil, &ConfigError{Msg: fmt.Sprintf("CheckpointInterval must be finite and >= 0, got %v", cfg.CheckpointInterval)}
	}
	if cfg.MaxCells < 0 {
		return nil, &ConfigError{Msg: fmt.Sprintf("MaxCells must be >= 0 (0 = unlimited), got %d", cfg.MaxCells)}
	}
	if cfg.Reduce < core.ReduceAuto || cfg.Reduce > core.ReducePrivatize {
		return nil, &ConfigError{Msg: fmt.Sprintf("unknown Reduce mode %d", int(cfg.Reduce))}
	}
	if ctx == nil {
		ctx = context.Background()
	}

	ex := &executor{
		prog:    p,
		cfg:     cfg,
		n:       n,
		depth:   depth,
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
	if ex.chaos {
		ex.winj = fault.NewWallInjector(cfg.Fault)
		if ex.winj != nil && cfg.testDelayUnit > 0 {
			ex.winj.DelayUnit = cfg.testDelayUnit
		}
		ex.snaps = make([]workerSnap, n)
		ex.prevSnaps = make([]workerSnap, n)
	}
	ex.start = time.Now()

	maxRestarts := cfg.MaxRestarts
	if maxRestarts == 0 {
		maxRestarts = DefaultMaxRestarts
	}
	if maxRestarts < 0 {
		maxRestarts = 0
	}

	// The attempt loop is the run-level heal path: a worker panic (a real
	// one, or a scheduled fail-stop under HardCrashes) or a watchdog stall
	// tears the whole worker set down; when a complete checkpoint
	// generation exists, the run restores every worker from it and
	// re-spawns with fresh transport. Coordinated (soft) crash recovery
	// never reaches this loop — workers restore in-band.
	var heal *healState
	for {
		res, err := ex.attempt(ctx, stall, heal)
		if err == nil {
			res.HardRestarts = ex.hardRestarts
			return res, nil
		}
		if !ex.chaos || ex.hardRestarts >= maxRestarts || ctx.Err() != nil || !healable(err) {
			return nil, err
		}
		h := ex.buildHeal(err)
		if h == nil {
			return nil, err
		}
		heal = h
		ex.hardRestarts++
	}
}

// attempt runs the worker set once: from program start when heal is nil,
// else from the heal's checkpoint snapshots.
func (ex *executor) attempt(ctx context.Context, stall time.Duration, heal *healState) (*Result, error) {
	n := ex.n
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ex.ctx, ex.cancel = cctx, cancel
	ex.wd = newWatchdog(n)
	ex.mail = make([][]chan message, n)
	for i := range ex.mail {
		ex.mail[i] = make([]chan message, n)
		for j := range ex.mail[i] {
			ex.mail[i][j] = make(chan message, ex.depth)
		}
	}
	states := make([]*eval.State, n)
	for i := range states {
		st, err := eval.NewStateBudget(ex.prog, eval.Budget{MaxCells: ex.cfg.MaxCells})
		if err != nil {
			return nil, fmt.Errorf("exec: %w", err)
		}
		// Arm the partial tables before any Restore: heal snapshots carry
		// in-flight private partials and restore into the armed tables.
		if err := st.ConfigureReduce(ex.cfg.Reduce, eval.Budget{MaxCells: ex.cfg.MaxCells}); err != nil {
			return nil, fmt.Errorf("exec: %w", err)
		}
		if heal != nil {
			st.Restore(heal.snaps[i].state)
		}
		states[i] = st
	}
	workers := make([]*worker, n)
	for i := range workers {
		workers[i] = &worker{
			ex:       ex,
			proc:     i,
			st:       states[i],
			sendSeq:  make([]uint64, n),
			recvSeq:  make([]uint64, n),
			attrStmt: -1,
		}
	}
	if ex.chaos {
		ex.setupChaos(workers, heal)
	} else {
		ex.mach = machine.New(ex.prog.Grid(), ex.cfg.Params)
		workers[0].mach = ex.mach
	}
	if ex.winj != nil {
		ex.wire = newWireNet(ex, workers)
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
	if ex.wire != nil {
		ex.wire.wg.Wait()
		ex.wire = nil
	}

	if se := ex.wd.stallError(); se != nil {
		return nil, se
	}
	if err := pickError(errs); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	if err := checkConsistency(states); err != nil {
		return nil, err
	}
	if err := ex.checkMachineAgreement(); err != nil {
		return nil, err
	}

	res := &Result{
		Time:            ex.mach.Time(),
		Stats:           ex.mach.Stats,
		Scalars:         map[string]float64{},
		Arrays:          map[string][]float64{},
		Workers:         n,
		TrafficMessages: ex.traffic.Load(),
		Trace:           ex.rec,

		Restarts:          ex.softRestarts,
		WireDrops:         ex.wireDrops.Load(),
		WireRetransmits:   ex.wireRetrans.Load(),
		WireDuplicates:    ex.wireDups.Load(),
		WireDupSuppressed: ex.wireDupSupp.Load(),
	}
	for v, x := range states[0].Scalars() {
		res.Scalars[v.Name] = x
	}
	for v, a := range states[0].Arrays() {
		res.Arrays[v.Name] = a
	}
	return res, nil
}

// runWorker drives one worker goroutine. Fault-free runs keep the original
// single-walk fast path; chaos mode runs the tracked walk with coordinated
// crash recovery around it (see chaos.go).
func (ex *executor) runWorker(w *worker) error {
	if !ex.chaos {
		err := eval.Walk(w.st, w)
		if err == nil {
			// Drain any message batch left open by trailing statements.
			err = w.flushBatch()
		}
		return err
	}
	return ex.runChaosWorker(w)
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

// checkConsistency verifies every worker's final memory image is bitwise
// identical to worker 0's — the replicated-execution invariant.
func checkConsistency(states []*eval.State) error {
	ref := states[0]
	for p := 1; p < len(states); p++ {
		st := states[p]
		for v, want := range ref.Scalars() {
			if got := st.Scalar(v); math.Float64bits(got) != math.Float64bits(want) {
				return &DivergenceError{Proc: p, Peer: 0, What: "final scalar " + v.Name, Got: got, Want: want}
			}
		}
		for v, want := range ref.Arrays() {
			got := st.Array(v)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					return &DivergenceError{Proc: p, Peer: 0,
						What: fmt.Sprintf("final %s element %d", v.Name, i), Got: got[i], Want: want[i]}
				}
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Worker

// worker is one simulated processor: an eval.Backend whose events perform
// real channel communication (and, on processor 0, the statistics replay).
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

	// batch is the single in-flight per-instance message batch (see
	// openBatch); count == 0 means no batch is open.
	batch openBatch

	// mach is this worker's cost-model replay machine. Fault-free runs give
	// it to worker 0 only (the accountant); chaos mode gives every worker
	// its own, so all replicated replays — including the seeded fault
	// draws — can be cross-checked after the run.
	mach *machine.Machine
	// inj replays the simulator's seeded injector (chaos mode only):
	// identical draw sequence, so modeled fault charges and crash points
	// agree with sim by construction.
	inj *fault.Injector
	// lastCkpt is the replayed clock at the last checkpoint (or recovery).
	lastCkpt float64
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
	// gen numbers this worker's published checkpoint snapshots.
	gen int64
	// healCrash, when set by a run-level heal, names the crashed processor
	// whose memory must be physically refetched at worker start.
	healCrash *fault.Crash
	// resume, when set by a run-level heal, is the checkpoint cursor the
	// worker's walk restarts from.
	resume *eval.Cursor
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

// emitN records one event standing for count planned messages (a flushed
// batch); the exact counters scale by count, keeping per-class totals
// identical to the simulator's per-instance emission.
func (w *worker) emitN(k trace.Kind, peer int, bytes int64, req int, count int32) {
	w.ex.rec.Emit(w.proc, trace.Event{
		Time: w.ex.wall(), Bytes: bytes, Kind: k, Class: w.attrClass,
		Proc: int32(w.proc), Peer: int32(peer), Stmt: w.attrStmt, Req: int32(req),
		Count: count,
	})
}

// elemBytes is the payload size of one element message.
func (w *worker) elemBytes() int64 { return int64(w.ex.cfg.Params.ElemBytes) }

// charges reports whether this worker replays the cost model right now:
// it owns a machine (worker 0 always; every worker in chaos mode) and is
// not re-executing an already-accounted interval after a restore.
func (w *worker) charges() bool { return w.mach != nil && !w.replay }

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
	if w.ex.wire != nil && to != w.proc {
		// Wire faults are live: route through the lossy link with its
		// ack/retransmit protocol. Self-sends stay on the direct edge — no
		// physical wire exists for them.
		return w.sendWire(to, m, what)
	}
	ch := w.ex.mail[w.proc][to]
	select {
	case ch <- m:
		w.ex.traffic.Add(1)
		w.ex.wd.tick()
		w.traceSend(to, m)
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
		w.traceSend(to, m)
		return nil
	case <-w.ex.ctx.Done():
		return w.ex.ctx.Err()
	}
}

// traceSend records the departure of one planned message. Protocol traffic
// (negative tags: reduce gathers, barriers) is invisible to the cost model,
// so it is excluded — keeping Send/Recv counts structurally identical to the
// simulator's trace.
func (w *worker) traceSend(to int, m message) {
	if !w.traces() || m.req < 0 || w.mute {
		return
	}
	n := m.count
	if n <= 0 {
		n = 1
	}
	w.emitN(trace.Send, to, w.attrBytes*int64(n), m.req, n)
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
	if w.traces() && m.req >= 0 && !w.mute {
		n := m.count
		if n <= 0 {
			n = 1
		}
		w.emitN(trace.Recv, from, w.attrBytes*int64(n), m.req, n)
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// eval.Backend

// Tick fires after every loop iteration: progress for the watchdog plus
// cancellation/deadline enforcement (and, in chaos mode, a crash-check site
// mirroring the simulator's per-iteration checkTime).
func (w *worker) Tick() error {
	w.ex.wd.tick()
	if h := w.ex.cfg.testHook; h != nil {
		if err := h(w.proc); err != nil {
			return err
		}
	}
	if w.ex.chaos {
		if err := w.crashCheck(); err != nil {
			return err
		}
	}
	return w.ex.ctx.Err()
}

// LoopEntry performs the vectorized communications hoisted to this loop.
// In chaos mode it is also the coordinated checkpoint boundary — the same
// loop-entry sites the simulator checkpoints at — and each hoisted
// communication is followed by a crash-check site mirroring the simulator's.
func (w *worker) LoopEntry(l *ir.Loop, lp *spmd.LoopPlan) error {
	// Any open batch flushes before other planned traffic so the per-edge
	// message order stays identical on every worker.
	if err := w.flushBatch(); err != nil {
		return err
	}
	if w.ex.chaos && (len(lp.Hoisted) > 0 || l.Parent == nil) {
		if err := w.maybeCheckpoint(); err != nil {
			return err
		}
	}
	for _, req := range lp.Hoisted {
		// A privatized combine consumes its operands at the owners that
		// accumulate them: no aggregated transfer, mirroring the simulator.
		if sp := w.ex.prog.PlanOf(req.Stmt); sp != nil &&
			w.st.PrivatizedActive(sp.Combine) && sp.Combine.Mapping == nil {
			continue
		}
		op, err := w.st.VectorizedOp(req, w.elemBytes())
		if err != nil {
			return err
		}
		if w.charges() {
			switch op.Kind {
			case eval.VecShift:
				w.mach.Shift(op.Participants, op.PerProc)
			case eval.VecBcast:
				w.mach.Multicast(op.From, op.Dst, op.Bytes)
			case eval.VecExchange:
				w.mach.Exchange(op.Src, op.Dst, op.Bytes)
			}
		}
		if w.traces() {
			w.stampVectorized(req, op)
		}
		err = w.vectorizedComm(req, op)
		w.clearAttr()
		if err != nil {
			return err
		}
		// Skipped requirements are not a crash-check site: the simulator
		// returns before its checkTime for VecSkip, so checking here would
		// detect a pending crash one op earlier than the reference.
		if w.ex.chaos && op.Kind != eval.VecSkip {
			if err := w.crashCheck(); err != nil {
				return err
			}
		}
	}
	return nil
}

// stampVectorized sets the trace attribution for one hoisted requirement's
// real traffic, mirroring the bytes the cost model charges per message; ring
// slots of shift non-participants are muted (the cost model does not charge
// them, and neither does the simulator's trace).
func (w *worker) stampVectorized(req *comm.Requirement, op eval.VectorizedOp) {
	switch op.Kind {
	case eval.VecShift:
		w.setAttr(req.Stmt.ID, req.Class, op.PerProc)
		w.mute = op.Participants.Count() < 2 || !op.Participants.Contains(w.proc)
	case eval.VecBcast:
		w.setAttr(req.Stmt.ID, req.Class, op.Bytes)
	case eval.VecExchange:
		per := op.Bytes
		if n := op.Src.Count(); n > 0 && op.Bytes/int64(n) > 0 {
			per = op.Bytes / int64(n)
		}
		w.setAttr(req.Stmt.ID, req.Class, per)
	}
}

// vectorizedComm performs the real traffic of one hoisted requirement. The
// concrete topology mirrors what the cost model charges: a ring exchange
// for shifts, root-to-members for broadcasts, owner-to-consumer messages
// for general aggregated communication.
func (w *worker) vectorizedComm(req *comm.Requirement, op eval.VectorizedOp) error {
	what := w.desc(req)
	dropped := w.ex.cfg.testDropSend != nil && w.ex.cfg.testDropSend(w.proc, req)
	switch op.Kind {
	case eval.VecSkip:
		return nil

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
		members := 0
		for _, p := range op.Dst.Procs() {
			if p != op.From {
				members++
			}
		}
		if members == 0 {
			return nil
		}
		if w.proc == op.From {
			for _, p := range op.Dst.Procs() {
				if p == op.From || dropped {
					continue
				}
				if err := w.send(p, message{req: req.ID}, what); err != nil {
					return err
				}
			}
			return nil
		}
		if op.Dst.Contains(w.proc) {
			_, err := w.recv(op.From, req.ID, what)
			return err
		}
		return nil

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
		return nil
	}
	return nil
}

// LoopExit performs the global reduction combines that run after the loop —
// a star gather to a deterministic root and a result broadcast back, with
// the partial values compared bitwise (replicated execution makes every
// partial the full value, so they must all agree) — then the lastprivate
// copy-outs: the final iteration's owner broadcasts its value and every
// receiver verifies bitwise agreement.
func (w *worker) LoopExit(l *ir.Loop, lp *spmd.LoopPlan) error {
	if err := w.flushBatch(); err != nil {
		return err
	}
	for _, c := range lp.Combines {
		if w.st.PrivatizedActive(c) {
			if err := w.mergeCombine(c); err != nil {
				return err
			}
			continue
		}
		if c.Mapping == nil {
			// A collective elementwise reduction has no combine operation:
			// its reference execution is plain per-instance owner-computes.
			continue
		}
		m := c.Mapping
		set := w.st.ScalarSet(m)
		if w.charges() {
			w.mach.Reduce(set, w.elemBytes())
		}
		procs := set.Procs()
		if len(procs) < 2 || !set.Contains(w.proc) {
			continue
		}
		if w.traces() && m.Def != nil && m.Def.Stmt != nil {
			w.setAttr(m.Def.Stmt.ID, dist.CommNone, 0)
		}
		what := "combine " + m.Def.Var.Name
		root := procs[0]
		bits := math.Float64bits(w.st.Scalar(m.Def.Var))
		if w.proc == root {
			for _, p := range procs[1:] {
				got, err := w.recv(p, tagReduce, what)
				if err != nil {
					return err
				}
				if got.hasVal && got.bits != bits {
					return &DivergenceError{Proc: w.proc, Peer: p, What: what,
						Got: math.Float64frombits(got.bits), Want: w.st.Scalar(m.Def.Var)}
				}
			}
			for _, p := range procs[1:] {
				if err := w.send(p, message{req: tagReduceResult, hasVal: true, bits: bits}, what); err != nil {
					return err
				}
			}
			if w.traces() {
				// One Reduce event per collective at the gathering root —
				// structurally identical to the simulator's emission.
				w.emit(trace.Reduce, -1, 0, w.elemBytes()*int64(len(procs)), -1)
			}
		} else {
			if err := w.send(root, message{req: tagReduce, hasVal: true, bits: bits}, what); err != nil {
				return err
			}
			got, err := w.recv(root, tagReduceResult, what)
			if err != nil {
				return err
			}
			if got.hasVal && got.bits != bits {
				return &DivergenceError{Proc: w.proc, Peer: root, What: what,
					Got: math.Float64frombits(got.bits), Want: w.st.Scalar(m.Def.Var)}
			}
		}
		w.clearAttr()
	}
	for _, m := range lp.CopyOuts {
		// The walker leaves the loop index at its final executed value, so
		// the pattern's owners are the final iteration's owners. Replicated
		// execution means every worker already holds the value; the real
		// broadcast verifies bitwise agreement with the owner.
		src := w.st.ScalarSet(m)
		all := dist.AllProcs(w.st.Grid())
		if src.Count() == all.Count() {
			continue // degenerate alignment: already everywhere
		}
		root := src.First()
		if w.charges() {
			w.mach.Multicast(root, all, w.elemBytes())
		}
		what := "copy-out " + m.Def.Var.Name
		bits := math.Float64bits(w.st.Scalar(m.Def.Var))
		if w.traces() && m.Def.Stmt != nil {
			// Protocol-tagged traffic is invisible to traceSend/recv, so the
			// events are emitted manually — one Send per destination at the
			// root, one Recv per receiver, structurally identical to
			// machine.Multicast's emission.
			w.setAttr(m.Def.Stmt.ID, dist.CommBcast, w.elemBytes())
		}
		if w.proc == root {
			for _, p := range all.Procs() {
				if p == root {
					continue
				}
				if err := w.send(p, message{req: tagCopyOut, hasVal: true, bits: bits}, what); err != nil {
					return err
				}
				if w.traces() {
					w.emit(trace.Send, p, 0, w.elemBytes(), -1)
				}
			}
		} else {
			got, err := w.recv(root, tagCopyOut, what)
			if err != nil {
				return err
			}
			if got.hasVal && got.bits != bits {
				return &DivergenceError{Proc: w.proc, Peer: root, What: what,
					Got: math.Float64frombits(got.bits), Want: w.st.Scalar(m.Def.Var)}
			}
			if w.traces() {
				w.emit(trace.Recv, root, 0, w.elemBytes(), -1)
			}
		}
		w.clearAttr()
	}
	return nil
}

// mergeCombine runs the privatized loop-exit merge of one combine: the
// shared value semantics fold the partial tables locally (identically on
// every worker — replicated execution), the charging workers replay the
// TreeMerge cost, and the real wire traffic walks the deterministic tree,
// each hop's loser shipping the FNV checksum of its pre-merge partial row
// for the winner to verify bitwise.
func (w *worker) mergeCombine(c *spmd.Combine) error {
	elems := w.st.PartialElems(c)
	hops, err := w.st.MergePartials(c)
	if err != nil {
		return err
	}
	if w.charges() {
		w.mach.SetAttr(c.Red.Stmt.ID, -1, dist.CommNone)
		w.mach.TreeMerge(dist.AllProcs(w.st.Grid()), elems*w.elemBytes(), w.ex.n)
		w.mach.ClearAttr()
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
			if err != nil {
				return err
			}
			if got.hasVal && got.bits != h.Check {
				return &DivergenceError{Proc: w.proc, Peer: h.Loser, What: what,
					Got: math.Float64frombits(got.bits), Want: math.Float64frombits(h.Check)}
			}
		}
	}
	if w.traces() && w.proc == 0 && len(hops) > 0 {
		// One Reduce event per merge at the tree root, stamped with the
		// merged-row count — structurally identical to the simulator's
		// TreeMerge emission (protocol-tagged hop traffic is invisible to
		// traceSend/recv, like the collective's gather).
		w.ex.rec.Emit(w.proc, trace.Event{
			Time: w.ex.wall(), Bytes: elems * w.elemBytes() * int64(len(hops)),
			Kind: trace.Reduce, Class: dist.CommNone,
			Proc: int32(w.proc), Peer: -1, Stmt: int32(c.Red.Stmt.ID), Req: -1,
			Merged: int32(w.ex.n),
		})
	}
	return nil
}

// Statement performs per-instance communication for one statement instance
// (and, on charging workers, replays the guard, message, and compute
// charges). In chaos mode every non-skipped per-instance communication is a
// crash-check site, mirroring the simulator's statement walk. A privatized
// elementwise reduction update skips its per-instance communication entirely
// — the instance accumulates into the data owner's partial row instead of
// shipping operands to the element's owner — which is where the privatized
// win comes from.
func (w *worker) Statement(st *ir.Stmt, sp *spmd.StmtPlan) error {
	privArray := w.st.PrivatizedActive(sp.Combine) && sp.Combine.Mapping == nil
	if privArray {
		var execSet dist.ProcSet
		var err error
		if sp.Combine.Red.DataRef != nil {
			execSet, err = w.st.OwnerSet(sp.Combine.Red.DataRef)
		} else {
			execSet, err = w.st.ExecSet(sp)
		}
		if err != nil {
			return err
		}
		if sp.Flops > 0 {
			if w.charges() {
				w.mach.Compute(execSet, float64(sp.Flops)*w.ex.cfg.Params.FlopTime)
			}
			if w.traces() && execSet.Contains(w.proc) {
				w.setAttr(st.ID, dist.CommNone, 0)
				w.emit(trace.Compute, -1, float64(sp.Flops)*w.ex.cfg.Params.FlopTime, 0, -1)
				w.clearAttr()
			}
		}
		return nil
	}
	for _, req := range sp.PerInstance {
		op, err := w.st.InstanceOp(req, sp, w.elemBytes())
		if err != nil {
			return err
		}
		if w.charges() && w.ex.cfg.Params.GuardTime > 0 {
			w.mach.Compute(dist.AllProcs(w.st.Grid()), w.ex.cfg.Params.GuardTime)
		}
		if op.Skip {
			continue
		}
		if w.charges() {
			// The replay charges the cost model per instance — batching is a
			// property of the physical transport only — so Stats and
			// simulated time stay identical to the sequential simulator's.
			if to, one := op.Dst.IsSingle(); one {
				w.mach.Send(op.From, to, op.Bytes)
			} else {
				w.mach.Multicast(op.From, op.Dst, op.Bytes)
			}
		}
		if err := w.batchInstance(req, st, op); err != nil {
			return err
		}
		if w.ex.chaos {
			if err := w.crashCheck(); err != nil {
				return err
			}
		}
	}
	execSet, err := w.st.ExecSet(sp)
	if err != nil {
		return err
	}
	if sp.Flops > 0 {
		if w.charges() {
			w.mach.Compute(execSet, float64(sp.Flops)*w.ex.cfg.Params.FlopTime)
		}
		if w.traces() && execSet.Contains(w.proc) {
			// The slice duration is the cost model's charge — the useful,
			// noise-free per-statement attribution for the timeline view.
			w.setAttr(st.ID, dist.CommNone, 0)
			w.emit(trace.Compute, -1, float64(sp.Flops)*w.ex.cfg.Params.FlopTime, 0, -1)
			w.clearAttr()
		}
	}
	return nil
}

// openBatch is the worker's single in-flight message batch: contiguous
// per-instance transfers of one requirement between one (source,
// destination) pair, coalesced into a single physical message per receiving
// edge. Replicated execution means every worker observes the identical
// instance sequence, so all workers open, extend, and flush batches at the
// same logical points — which keeps the per-edge message order (and
// sequence numbers) consistent without any negotiation.
type openBatch struct {
	req   *comm.Requirement
	from  int
	dst   dist.ProcSet
	stmt  int
	class dist.CommClass
	bytes int64 // per-element payload bytes
	count int32
	// sum is an FNV-1a fold of the batched values' bit patterns, accumulated
	// per instance on the pre-statement image (the image at flush time may
	// already have been overwritten). Receivers accumulate their own fold
	// and compare it against the sender's — the batched equivalent of the
	// per-instance bitwise divergence check.
	sum    uint64
	hasVal bool
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvAdd folds one 64-bit value into an FNV-1a checksum.
func fnvAdd(sum, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		sum ^= v & 0xff
		sum *= fnvPrime
		v >>= 8
	}
	return sum
}

// batchInstance coalesces one non-skipped per-instance transfer into the
// worker's open batch, flushing first when the (requirement, source,
// destination) key changes. Participants fold the element's local value —
// evaluated now, on the pre-statement image, where it is identical on every
// worker under replicated execution — into the batch checksum.
func (w *worker) batchInstance(req *comm.Requirement, st *ir.Stmt, op eval.InstanceOp) error {
	b := &w.batch
	if b.count > 0 && !(b.req == req && b.from == op.From && b.dst.Equal(op.Dst)) {
		if err := w.flushBatch(); err != nil {
			return err
		}
	}
	if b.count == 0 {
		*b = openBatch{req: req, from: op.From, dst: op.Dst, stmt: st.ID,
			class: req.Class, bytes: op.Bytes, sum: fnvOffset, hasVal: true}
	}
	b.count++
	if w.proc == op.From || op.Dst.Contains(w.proc) {
		local, lerr := w.st.UseValue(req)
		if lerr != nil {
			// The statement's own semantics will surface lerr; the batch
			// just loses its verifiable payload.
			b.hasVal = false
		} else {
			b.sum = fnvAdd(b.sum, math.Float64bits(local))
		}
	}
	return nil
}

// flushBatch performs the real traffic of the open batch — the owner
// representative sends one message per receiving edge carrying the element
// count and the payload checksum, and every receiver verifies both against
// its replicated accumulation. Every worker flushes at the same logical
// points: on a batch-key change, before any other planned traffic
// (vectorized communication, reduction combines, redistribution barriers),
// and at the end of the walk.
func (w *worker) flushBatch() error {
	b := &w.batch
	if b.count == 0 {
		return nil
	}
	op := *b
	b.count = 0
	b.req = nil
	if w.proc != op.from && !op.dst.Contains(w.proc) {
		return nil // not a participant in this batch
	}
	req := op.req
	what := w.desc(req)
	dropped := w.ex.cfg.testDropSend != nil && w.ex.cfg.testDropSend(w.proc, req)
	m := message{req: req.ID, count: op.count, hasVal: op.hasVal, bits: op.sum}
	w.setAttr(op.stmt, op.class, op.bytes)
	defer w.clearAttr()
	verify := func(got message, from int) error {
		if got.count != op.count {
			return &DivergenceError{Proc: w.proc, Peer: from,
				What: what + " (batch length)",
				Got:  float64(got.count), Want: float64(op.count)}
		}
		if !got.hasVal || !op.hasVal {
			return nil
		}
		if got.bits != op.sum {
			return &DivergenceError{Proc: w.proc, Peer: from,
				What: what + " (batch checksum)",
				Got:  math.Float64frombits(got.bits), Want: math.Float64frombits(op.sum)}
		}
		return nil
	}

	if to, one := op.dst.IsSingle(); one {
		// Point-to-point delivery (a self-send uses the self edge, kept
		// for exact parity with the cost model, which charges it too).
		if w.proc == op.from && !dropped {
			if err := w.send(to, m, what); err != nil {
				return err
			}
		}
		if w.proc == to {
			got, err := w.recv(op.from, req.ID, what)
			if err != nil {
				return err
			}
			return verify(got, op.from)
		}
		return nil
	}
	// Multicast delivery: the root does not message itself (the cost
	// model's Multicast excludes the source as well).
	if w.proc == op.from {
		for _, p := range op.dst.Procs() {
			if p == op.from || dropped {
				continue
			}
			if err := w.send(p, m, what); err != nil {
				return err
			}
		}
		return nil
	}
	got, err := w.recv(op.from, req.ID, what)
	if err != nil {
		return err
	}
	return verify(got, op.from)
}

// Redistribute performs the barrier an executable redistribution implies
// (the mapping update has already been applied to every worker's state) and
// replays its all-to-all charge. In chaos mode the end of the barrier is a
// crash-check site, mirroring the simulator's redistribution walk.
func (w *worker) Redistribute(st *ir.Stmt) error {
	if err := w.flushBatch(); err != nil {
		return err
	}
	if w.charges() {
		per := w.st.RedistBytesPerProc(st, w.elemBytes())
		w.mach.AllToAll(dist.AllProcs(w.st.Grid()), per)
	}
	if err := w.starBarrier(tagBarrier, tagRelease, "redistribute "+st.Redist.Array.Name); err != nil {
		return err
	}
	if w.ex.chaos {
		return w.crashCheck()
	}
	return nil
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
