// Structured errors of the concurrent executor. Every failure mode a worker
// set can exhibit — a panic inside one goroutine, a wedged rendezvous, a
// protocol violation on a mailbox, or state that should agree but does not —
// surfaces as one of the types below instead of crashing or hanging the
// process.
package exec

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// WorkerError is a panic contained inside one worker goroutine: the
// executor cancels the remaining workers, collects them, and returns this
// instead of letting the panic kill the process.
type WorkerError struct {
	// Proc is the simulated processor whose worker panicked.
	Proc int
	// PanicValue is the value passed to panic().
	PanicValue any
	// Stack is the panicking goroutine's stack trace.
	Stack string
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("exec: worker for processor %d panicked: %v", e.Proc, e.PanicValue)
}

// BlockedOp describes one pending channel operation at the moment the
// watchdog declared a stall: which processor was blocked, in which
// direction, against which peer, and on behalf of which communication.
type BlockedOp struct {
	Proc int    // the blocked processor
	Op   string // "send" or "recv"
	Peer int    // the processor it was waiting on
	What string // the planned communication being performed
}

func (b BlockedOp) String() string {
	arrow := "->"
	if b.Op == "recv" {
		arrow = "<-"
	}
	return fmt.Sprintf("p%d %s%sp%d [%s]", b.Proc, b.Op, arrow, b.Peer, b.What)
}

// StallError reports a deadlocked or silent worker set: no worker made
// progress for Quiet although Unfinished workers remained. Blocked lists
// the channel operations pending at detection time (a worker wedged outside
// a channel operation appears in Unfinished but not in Blocked).
type StallError struct {
	Quiet      time.Duration
	Unfinished []int
	Blocked    []BlockedOp
}

func (e *StallError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "exec: stall: no worker progress for %v; unfinished processors %v", e.Quiet, e.Unfinished)
	if len(e.Blocked) > 0 {
		ops := make([]string, len(e.Blocked))
		for i, op := range e.Blocked {
			ops[i] = op.String()
		}
		sort.Strings(ops)
		b.WriteString("; blocked: ")
		b.WriteString(strings.Join(ops, ", "))
	}
	return b.String()
}

// ProtocolError is a message that did not match the plan: a worker received
// traffic for the wrong requirement or out of sequence on an edge. It means
// one backend's communication decisions diverged — exactly the bug class
// the differential oracle exists to catch.
type ProtocolError struct {
	Proc, From      int
	WantReq, GotReq int
	WantSeq, GotSeq uint64
	What            string
}

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("exec: protocol violation at p%d receiving from p%d during %s: want req %d seq %d, got req %d seq %d",
		e.Proc, e.From, e.What, e.WantReq, e.WantSeq, e.GotReq, e.GotSeq)
}

// DivergenceError reports state two workers should agree on and do not: a
// replicated account's time or counter (chaos mode), or a value both ends of
// a recovery refetch hold.
type DivergenceError struct {
	Proc, Peer int
	What       string
	Got, Want  float64
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("exec: state diverged at p%d vs p%d (%s): %v != %v",
		e.Proc, e.Peer, e.What, e.Got, e.Want)
}
