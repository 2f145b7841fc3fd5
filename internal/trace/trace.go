// Package trace is the runtime observability layer shared by both execution
// backends: a low-overhead recorder of typed execution events, each carrying
// processor, timestamp, byte count, peer, statement and communication-class
// attribution. The sequential simulator records the cost model in simulated
// time: computation, message send/receive, reductions, checkpoints, restarts
// and faults. The concurrent executor records only what its workers alone
// observe, in wall time: each send and receive of a planned message, and each
// wait on a peer. The differential oracle compares the two traces' planned
// messages per communication class; the model's other events are the
// simulator's alone.
//
// Design constraints, in order:
//
//   - Disabled tracing costs nothing: a nil *Recorder is a valid recorder
//     whose methods are no-ops, so every emission site is a nil check and
//     the event path allocates zero bytes (benchmark-guarded).
//   - Enabled tracing is bounded: events land in fixed-capacity per-shard
//     ring buffers (newest win) with optional 1-in-N sampling; the derived
//     counters (per-class totals, the P×P communication matrix) are exact
//     regardless of ring capacity or sampling.
//   - Concurrent emission is race-free: each worker goroutine owns one
//     shard's ring and per-statement map outright, while the shared
//     counters are atomics — so the concurrent backend can trace under
//     -race without locks on the hot path.
package trace

import (
	"sort"
	"sync/atomic"

	"phpf/internal/dist"
)

// Kind is the type of one traced event.
type Kind uint8

const (
	// Compute is a computation charge on one processor.
	Compute Kind = iota
	// Send is one message leaving a processor.
	Send
	// Recv is one message arriving at a processor.
	Recv
	// Wait is time a processor spent blocked on a peer (concurrent backend).
	Wait
	// Reduce is one global reduction combine (one event per collective).
	Reduce
	// Checkpoint is one processor's share of a coordinated checkpoint.
	Checkpoint
	// Restart is the recovery of a crashed processor (Bytes = refetched
	// state, Dur = re-executed interval).
	Restart
	// Fault is an injected fault taking effect (a dropped or duplicated
	// transmission, or the crash itself).
	Fault

	nkinds
)

func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Send:
		return "send"
	case Recv:
		return "recv"
	case Wait:
		return "wait"
	case Reduce:
		return "reduce"
	case Checkpoint:
		return "checkpoint"
	case Restart:
		return "restart"
	case Fault:
		return "fault"
	}
	return "?"
}

// nclasses covers dist.CommNone..dist.CommGeneral.
const nclasses = int(dist.CommGeneral) + 1

// Event is one traced runtime event. It is a plain value — emission never
// allocates — and negative Peer/Stmt/Req mean "not applicable".
type Event struct {
	// Time is the event timestamp in seconds: simulated time from the
	// simulator, wall time since run start from the concurrent executor.
	Time float64
	// Dur is the event's duration in the same unit (0 = instant).
	Dur float64
	// Bytes is the payload or state size the event moved.
	Bytes int64
	// Kind is the event type.
	Kind Kind
	// Class is the communication class of the planned requirement the event
	// realizes (CommNone when not a planned communication).
	Class dist.CommClass
	// Proc is the processor the event happened on (-1 = the machine).
	Proc int32
	// Peer is the other endpoint of a message (-1 = none/collective).
	Peer int32
	// Stmt is the source statement ID the event is attributed to (-1 = none).
	Stmt int32
	// Req is the communication-plan requirement ID (-1 = none).
	Req int32
	// Merged is the number of private partial rows a privatized-reduction
	// tree merge combined (Reduce events only; 0 for collective reductions).
	Merged int32
}

// Options configures a Recorder.
type Options struct {
	// SampleEvery keeps one of every N events in the ring (0 or 1 = keep
	// all). Counters and the communication matrix stay exact either way.
	SampleEvery int
}

// DefaultCapacity is the per-shard ring capacity in events.
const DefaultCapacity = 1 << 16

// shard is one emitter's private event store. The ring, seen counter, and
// per-statement aggregation are owned by a single goroutine; cross-shard
// reads happen only after the emitting goroutines are joined.
type shard struct {
	seen int64 // events emitted to this shard (pre-sampling)
	head int   // next overwrite position once the ring is full
	ring []Event
	// stmt aggregates per-statement planned communication (Send events).
	stmt map[int32]*StmtComm

	_ [64]byte // keep adjacent shards off one cache line
}

// StmtComm is one statement's planned-communication histogram: messages and
// bytes sent, split by communication class.
type StmtComm struct {
	Stmt  int32
	Msgs  [nclasses]int64
	Bytes [nclasses]int64
}

// TotalMsgs sums the per-class message counts.
func (s *StmtComm) TotalMsgs() int64 {
	var n int64
	for _, m := range s.Msgs {
		n += m
	}
	return n
}

// TotalBytes sums the per-class byte counts.
func (s *StmtComm) TotalBytes() int64 {
	var n int64
	for _, b := range s.Bytes {
		n += b
	}
	return n
}

// Recorder collects events from one run. The zero value of the pointer type
// (nil) is a valid, disabled recorder: every method is nil-safe and the
// event path performs no work and no allocation.
type Recorder struct {
	nprocs   int
	capacity int // events per shard's ring: DefaultCapacity
	sample   int64
	labels   map[int32]string

	shards []shard

	// Exact counters, independent of ring capacity and sampling. Updated
	// with atomics so any goroutine may read them at any time.
	kindCnt   [nkinds]atomic.Int64
	classMsgs [nclasses]atomic.Int64
	classByte [nclasses]atomic.Int64
	// matMsgs/matBytes are the P×P communication matrix (row-major,
	// from*nprocs+to), counting planned point-to-point deliveries.
	matMsgs  []atomic.Int64
	matBytes []atomic.Int64
	// merged is the exact total of Event.Merged across Reduce events — the
	// number of partial rows privatized tree merges combined.
	merged atomic.Int64
}

// New creates a recorder for nprocs processors with nshards independent
// emitters (the simulator uses one shard; the concurrent executor one per
// worker). nshards is clamped to at least 1.
func New(nprocs, nshards int, o Options) *Recorder {
	if nprocs < 1 {
		nprocs = 1
	}
	if nshards < 1 {
		nshards = 1
	}
	sample := int64(o.SampleEvery)
	if sample < 1 {
		sample = 1
	}
	return &Recorder{
		nprocs:   nprocs,
		capacity: DefaultCapacity,
		sample:   sample,
		shards:   make([]shard, nshards),
		matMsgs:  make([]atomic.Int64, nprocs*nprocs),
		matBytes: make([]atomic.Int64, nprocs*nprocs),
	}
}

// NProcs returns the processor count the recorder was sized for.
func (r *Recorder) NProcs() int {
	if r == nil {
		return 0
	}
	return r.nprocs
}

// Enabled reports whether the recorder collects anything.
func (r *Recorder) Enabled() bool { return r != nil }

// SetLabels installs human-readable statement labels (statement ID → label)
// used by the formatters and the Chrome exporter. Call before the run.
func (r *Recorder) SetLabels(labels map[int]string) {
	if r == nil {
		return
	}
	r.labels = make(map[int32]string, len(labels))
	for id, l := range labels {
		r.labels[int32(id)] = l
	}
}

// Label returns the label of a statement ID ("" when unknown).
func (r *Recorder) Label(stmt int32) string {
	if r == nil {
		return ""
	}
	return r.labels[stmt]
}

// Emit records one event into the given shard. Only one goroutine may emit
// into a shard; distinct shards may emit concurrently. A nil recorder
// ignores the event at zero cost.
func (r *Recorder) Emit(sh int, e Event) {
	if r == nil {
		return
	}
	s := &r.shards[sh]
	s.seen++
	r.kindCnt[e.Kind].Add(1)
	if e.Kind == Reduce && e.Merged > 0 {
		r.merged.Add(int64(e.Merged))
	}
	if e.Kind == Send && e.Req >= 0 {
		// Exact planned-communication accounting: per-class counters, the
		// pairwise matrix, and the per-statement histogram.
		cl := int(e.Class)
		r.classMsgs[cl].Add(1)
		r.classByte[cl].Add(e.Bytes)
		if e.Proc >= 0 && e.Peer >= 0 && int(e.Proc) < r.nprocs && int(e.Peer) < r.nprocs {
			i := int(e.Proc)*r.nprocs + int(e.Peer)
			r.matMsgs[i].Add(1)
			r.matBytes[i].Add(e.Bytes)
		}
		if e.Stmt >= 0 {
			if s.stmt == nil {
				s.stmt = map[int32]*StmtComm{}
			}
			sc := s.stmt[e.Stmt]
			if sc == nil {
				sc = &StmtComm{Stmt: e.Stmt}
				s.stmt[e.Stmt] = sc
			}
			sc.Msgs[cl]++
			sc.Bytes[cl] += e.Bytes
		}
	}
	if r.sample > 1 && (s.seen-1)%r.sample != 0 {
		return
	}
	if len(s.ring) < r.capacity {
		s.ring = append(s.ring, e)
		return
	}
	s.ring[s.head] = e
	s.head++
	if s.head == r.capacity {
		s.head = 0
	}
}

// Seen returns the total number of events emitted (before sampling and ring
// eviction).
func (r *Recorder) Seen() int64 {
	if r == nil {
		return 0
	}
	var n int64
	for i := range r.shards {
		n += r.shards[i].seen
	}
	return n
}

// Len returns the number of events currently stored in the rings.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.shards {
		n += len(r.shards[i].ring)
	}
	return n
}

// KindCount returns the exact number of events of kind k emitted.
func (r *Recorder) KindCount(k Kind) int64 {
	if r == nil {
		return 0
	}
	return r.kindCnt[k].Load()
}

// MergedCount returns the exact total number of partial rows privatized
// tree merges combined (the sum of Event.Merged over Reduce events).
func (r *Recorder) MergedCount() int64 {
	if r == nil {
		return 0
	}
	return r.merged.Load()
}

// Events returns the stored events: each shard's ring in chronological
// order, shards concatenated in index order (the simulator's single shard
// is therefore the exact program-order stream). Call only after the
// emitting goroutines have finished.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for i := range r.shards {
		s := &r.shards[i]
		if len(s.ring) < r.capacity {
			out = append(out, s.ring...)
			continue
		}
		out = append(out, s.ring[s.head:]...)
		out = append(out, s.ring[:s.head]...)
	}
	return out
}

// Timeline returns the stored events of one processor, sorted by time
// (stable, so same-time events keep emission order within a shard).
func (r *Recorder) Timeline(proc int) []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for _, e := range r.Events() {
		if int(e.Proc) == proc {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// StmtComms returns the merged per-statement planned-communication
// histograms, sorted by statement ID. Call only after the emitting
// goroutines have finished.
func (r *Recorder) StmtComms() []StmtComm {
	if r == nil {
		return nil
	}
	merged := map[int32]*StmtComm{}
	for i := range r.shards {
		for id, sc := range r.shards[i].stmt {
			m := merged[id]
			if m == nil {
				m = &StmtComm{Stmt: id}
				merged[id] = m
			}
			for c := 0; c < nclasses; c++ {
				m.Msgs[c] += sc.Msgs[c]
				m.Bytes[c] += sc.Bytes[c]
			}
		}
	}
	out := make([]StmtComm, 0, len(merged))
	for _, m := range merged {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stmt < out[j].Stmt })
	return out
}
