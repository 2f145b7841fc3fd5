// The stall watchdog: detects a deadlocked or silent worker set and reports
// which processors were blocked on which sends and receives, instead of
// letting the run hang. Progress is tracked with a single global counter the
// workers bump on every completed channel operation, every loop iteration,
// and on exit; pending channel operations register in a small mutex-guarded
// table only after their non-blocking fast path failed, so the fully
// buffered common case stays on atomics.
package exec

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

type watchdog struct {
	progress atomic.Int64

	mu       sync.Mutex
	blocked  map[int64]BlockedOp
	nextID   int64
	finished []bool
	stall    *StallError
	name     func(tag int) string // names a blocked message's tag in a report

	quit chan struct{}
}

func newWatchdog(nprocs int, name func(tag int) string) *watchdog {
	return &watchdog{
		blocked:  map[int64]BlockedOp{},
		finished: make([]bool, nprocs),
		name:     name,
		quit:     make(chan struct{}),
	}
}

// tick records one unit of worker progress.
func (wd *watchdog) tick() { wd.progress.Add(1) }

// block registers a channel operation on a message of tag that failed its
// non-blocking fast path; the returned handle releases the entry once the
// operation completes or is abandoned.
func (wd *watchdog) block(proc int, op string, peer, tag int) int64 {
	wd.mu.Lock()
	defer wd.mu.Unlock()
	wd.nextID++
	id := wd.nextID
	wd.blocked[id] = BlockedOp{Proc: proc, Op: op, Peer: peer, tag: tag}
	return id
}

func (wd *watchdog) unblock(id int64) {
	wd.mu.Lock()
	delete(wd.blocked, id)
	wd.mu.Unlock()
}

// finish marks a worker done (normally or with an error); finished workers
// are exempt from stall reporting.
func (wd *watchdog) finish(proc int) {
	wd.mu.Lock()
	wd.finished[proc] = true
	wd.mu.Unlock()
	wd.tick()
}

// stop terminates the poller (idempotent is not needed: called once).
func (wd *watchdog) stop() { close(wd.quit) }

// stallError returns the stall verdict, if the watchdog fired.
func (wd *watchdog) stallError() *StallError {
	wd.mu.Lock()
	defer wd.mu.Unlock()
	return wd.stall
}

// watch polls the progress counter and fires once no progress has been made
// for at least stall while unfinished workers remain, recording a snapshot
// of the blocked operations and cancelling the run so every wedged worker
// unwinds. Workers that compute for a long time between loop iterations do
// tick at every iteration, so only a genuinely silent set trips this.
func (wd *watchdog) watch(ctx context.Context, stall time.Duration, cancel context.CancelFunc) {
	interval := stall / 8
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	last := wd.progress.Load()
	lastChange := time.Now()
	for {
		select {
		case <-wd.quit:
			return
		case <-ctx.Done():
			return
		case <-t.C:
		}
		cur := wd.progress.Load()
		if cur != last {
			last = cur
			lastChange = time.Now()
			continue
		}
		quiet := time.Since(lastChange)
		if quiet < stall {
			continue
		}
		if wd.fire(quiet) {
			cancel()
			return
		}
		// Everyone finished between polls: nothing to report.
		return
	}
}

// fire snapshots the stall state; it reports false when no worker remained
// unfinished (no stall after all).
func (wd *watchdog) fire(quiet time.Duration) bool {
	wd.mu.Lock()
	defer wd.mu.Unlock()
	var unfinished []int
	for p, done := range wd.finished {
		if !done {
			unfinished = append(unfinished, p)
		}
	}
	if len(unfinished) == 0 {
		return false
	}
	se := &StallError{Quiet: quiet, Unfinished: unfinished}
	for _, op := range wd.blocked {
		op.What = wd.name(op.tag)
		se.Blocked = append(se.Blocked, op)
	}
	sort.Slice(se.Blocked, func(i, j int) bool {
		a, b := se.Blocked[i], se.Blocked[j]
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		return a.Peer < b.Peer
	})
	wd.stall = se
	return true
}
