// The wire layer makes the fault plan's message faults physical. When the
// plan has loss, duplication, or slowdowns, every non-self directed edge
// gets a link goroutine between the sender and the destination mailbox: the
// seeded wall injector draws per-(src,dst,seq,attempt) decisions to drop or
// duplicate real transmissions, and senders run a stop-and-wait
// ack/retransmit protocol with exponential backoff on top. The draws are
// keyed, not sequential, so the outcome is reproducible for a fixed seed
// regardless of goroutine interleaving — and entirely invisible to the
// replayed cost model, which the differential oracle compares against the
// simulator (the physical activity is reported separately in Result).
package exec

import (
	"fmt"
	"sync"
	"time"

	"phpf/internal/trace"
)

// maxWireAttempts bounds the retransmissions of one message. With doubling
// backoff this is far beyond any plausible loss run; hitting it means the
// receiver is gone, and the error is surfaced rather than spinning.
const maxWireAttempts = 20

// wireMsg is one transmission attempt on a link.
type wireMsg struct {
	m       message
	attempt int
	dup     bool
}

// wireEdge is the channel pair of one directed link: transmissions flow on
// wire, acknowledgements (reliable, in-process) flow back on ack.
type wireEdge struct {
	wire chan wireMsg
	ack  chan uint64
}

// wireNet is the set of link goroutines for one attempt's transport.
type wireNet struct {
	edges [][]*wireEdge // [src][dst]; nil on the diagonal
	wg    sync.WaitGroup
}

// newWireNet spawns one link per non-self edge. Each link's duplicate
// suppression starts at the destination worker's current expected sequence
// number — which a run-level heal restores from the checkpoint, keeping
// suppression correct across transport rebuilds.
func newWireNet(ex *executor, workers []*worker) *wireNet {
	n := ex.n
	wn := &wireNet{edges: make([][]*wireEdge, n)}
	for s := 0; s < n; s++ {
		wn.edges[s] = make([]*wireEdge, n)
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			e := &wireEdge{
				wire: make(chan wireMsg, ex.depth),
				ack:  make(chan uint64, ex.depth),
			}
			wn.edges[s][d] = e
			wn.wg.Add(1)
			go wn.link(ex, s, d, e, workers[d].recvSeq[s])
		}
	}
	return wn
}

// link is the lossy wire of one directed edge. It is always ready to take
// the next transmission (so a sender's enqueue never deadlocks against a
// blocked delivery), suppresses already-delivered sequence numbers without
// acknowledging them, drops what the seeded injector says to drop, and
// delivers the rest into the real mailbox before acknowledging.
func (wn *wireNet) link(ex *executor, src, dst int, e *wireEdge, expect uint64) {
	defer wn.wg.Done()
	mail := ex.mail[src][dst]
	for {
		var wm wireMsg
		select {
		case wm = <-e.wire:
		case <-ex.ctx.Done():
			return
		}
		m := wm.m
		if m.seq < expect {
			// A duplicate or stale retransmit of a message already
			// delivered and acknowledged: suppress silently.
			ex.wireDupSupp.Add(1)
			continue
		}
		if ex.winj.DropAttempt(src, dst, m.seq, wm.attempt, wm.dup) {
			ex.wireDrops.Add(1)
			continue
		}
		select {
		case mail <- m:
		case <-ex.ctx.Done():
			return
		}
		expect = m.seq + 1
		select {
		case e.ack <- m.seq:
		case <-ex.ctx.Done():
			return
		}
	}
}

// sendWire transmits one message over the lossy link: optional slowdown
// delay, then stop-and-wait with RTO-based retransmission and exponential
// backoff until the exact acknowledgement arrives. Waiting for the ack is
// deadlock-equivalent to blocking on a full mailbox — the watchdog sees it
// as a blocked send either way.
func (w *worker) sendWire(to int, m message, what string) error {
	ex := w.ex
	e := ex.wire.edges[w.proc][to]
	if d := ex.winj.SendDelay(w.proc, ex.wall()); d > 0 {
		w.sleepWall(d, to, what+" (slowdown)")
	}
	rto := ex.winj.RTO()
	dup := ex.winj.Duplicate(w.proc, to, m.seq)
	h := ex.wd.block(w.proc, "send", to, what)
	defer ex.wd.unblock(h)
	for attempt := 0; attempt < maxWireAttempts; attempt++ {
		if attempt > 0 {
			ex.wireRetrans.Add(1)
		}
		if err := w.wirePut(e, wireMsg{m: m, attempt: attempt}); err != nil {
			return err
		}
		if dup {
			ex.wireDups.Add(1)
			if err := w.wirePut(e, wireMsg{m: m, attempt: attempt, dup: true}); err != nil {
				return err
			}
		}
		timer := time.NewTimer(rto)
		select {
		case seq := <-e.ack:
			timer.Stop()
			if seq != m.seq {
				return &ProtocolError{Proc: w.proc, From: to,
					WantSeq: m.seq, GotSeq: seq, What: what + " (wire ack)"}
			}
			ex.traffic.Add(1)
			ex.wd.tick()
			w.tracePlanned(trace.Send, to, m)
			return nil
		case <-timer.C:
			rto *= 2
		case <-ex.ctx.Done():
			timer.Stop()
			return ex.ctx.Err()
		}
	}
	return fmt.Errorf("exec: p%d: %s: no acknowledgement from p%d after %d transmissions",
		w.proc, what, to, maxWireAttempts)
}

// wirePut enqueues one transmission attempt on the link.
func (w *worker) wirePut(e *wireEdge, wm wireMsg) error {
	select {
	case e.wire <- wm:
		return nil
	case <-w.ex.ctx.Done():
		return w.ex.ctx.Err()
	}
}

// sleepWall parks the worker for a real-time delay (an injected slowdown
// made physical), registered with the watchdog so a delay beyond the stall
// threshold is detected and named like any other wedged operation.
func (w *worker) sleepWall(d time.Duration, peer int, what string) {
	h := w.ex.wd.block(w.proc, "send", peer, what)
	defer w.ex.wd.unblock(h)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-w.ex.ctx.Done():
	}
}
