package exec

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"phpf/internal/comm"
	"phpf/internal/core"
	"phpf/internal/diag"
	"phpf/internal/eval"
	"phpf/internal/machine"
	"phpf/internal/programs"
	"phpf/internal/sim"
)

// commSource is a small program whose compilation produces real
// communication: the offset read b(i-1) under a block distribution is a
// vectorized nearest-neighbor shift (every processor sends its boundary
// element around the ring), and the sum is a global reduction — so workers
// must actually rendezvous.
const commSource = `
program talk
parameter n = 16
real a(n), b(n)
real s
integer i
!hpf$ align b(i) with a(i)
!hpf$ distribute (block) :: a
do i = 1, n
  b(i) = i * 1.5
end do
s = 0.0
do i = 2, n
  a(i) = b(i-1) + 1.0
  s = s + a(i)
end do
end
`

// TestWatchdogReportsWedgedWorkers: a worker whose sends are deliberately
// suppressed wedges its receivers; the watchdog must detect the stall and
// report the blocked processors and their pending operations instead of
// letting the test hang — after one stall timeout, in chaos mode as outside
// it (the wedge is deterministic, so nothing is retried).
func TestWatchdogReportsWedgedWorkers(t *testing.T) {
	prog := compile(t, commSource, 4, core.DefaultOptions())
	const stall = 150 * time.Millisecond
	hk := hooks{dropSend: func(proc int, req *comm.Requirement) bool {
		return proc == 1 // processor 1 goes silent on every planned send
	}}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{StallTimeout: stall}},
		{"chaos", Config{StallTimeout: stall, CheckpointInterval: 1e-9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan struct{})
			var res *Result
			var err error
			start := time.Now()
			go func() {
				defer close(done)
				res, err = run(context.Background(), prog, tc.cfg, hk)
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("run hung: watchdog did not fire")
			}
			elapsed := time.Since(start)
			if err == nil {
				t.Fatalf("expected a stall, got success: %+v", res.Stats)
			}
			var se *StallError
			if !errors.As(err, &se) {
				t.Fatalf("expected *StallError, got %T: %v", err, err)
			}
			if elapsed > 2*stall {
				t.Fatalf("stall reported after %v, want within 2 × %v", elapsed, stall)
			}
			if len(se.Unfinished) == 0 {
				t.Fatalf("stall reports no unfinished workers: %v", se)
			}
			if len(se.Blocked) == 0 {
				t.Fatalf("stall reports no blocked operations: %v", se)
			}
			foundRecv := false
			for _, op := range se.Blocked {
				if op.Op == "recv" && op.Peer == 1 {
					foundRecv = true
					// The shift of b(i-1) is the plan's one requirement, and
					// the report names it by its String.
					if want := prog.Plan.Reqs[0].String(); len(prog.Plan.Reqs) != 1 || op.What != want {
						t.Fatalf("blocked receive names %q, want the plan's one requirement %q", op.What, want)
					}
				}
			}
			if !foundRecv {
				t.Fatalf("expected a receive blocked on the silent processor 1; got %v", se.Blocked)
			}
			if !strings.Contains(se.Error(), "blocked") {
				t.Fatalf("error text should name the blocked operations: %v", se)
			}
		})
	}
}

// TestPanicContainment: a panic inside one worker goroutine must surface as
// a structured *WorkerError with the process intact, not crash the run.
func TestPanicContainment(t *testing.T) {
	prog := compile(t, commSource, 4, core.DefaultOptions())
	hk := hooks{tick: func(proc int) error {
		if proc == 2 {
			panic("injected worker failure")
		}
		return nil
	}}
	_, err := run(context.Background(), prog, Config{}, hk)
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("expected *WorkerError, got %T: %v", err, err)
	}
	if we.Proc != 2 {
		t.Fatalf("panic attributed to processor %d, want 2", we.Proc)
	}
	if we.PanicValue != "injected worker failure" {
		t.Fatalf("panic value %v", we.PanicValue)
	}
	if !strings.Contains(we.Stack, "goroutine") {
		t.Fatalf("missing stack trace: %q", we.Stack)
	}
}

// TestDeadline: a context deadline aborts the run with the context's error
// (the concurrent backend's replacement for the simulator's MaxSeconds).
func TestDeadline(t *testing.T) {
	prog := compile(t, commSource, 4, core.DefaultOptions())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	hk := hooks{tick: func(proc int) error {
		time.Sleep(5 * time.Millisecond) // make the run outlast the deadline
		return nil
	}}
	_, err := run(ctx, prog, Config{}, hk)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected DeadlineExceeded, got %v", err)
	}
}

// TestCancellation: cancelling the caller's context unwinds every worker.
func TestCancellation(t *testing.T) {
	prog := compile(t, commSource, 4, core.DefaultOptions())
	ctx, cancel := context.WithCancel(context.Background())
	hk := hooks{tick: func(proc int) error {
		cancel() // first tick cancels the whole run
		return nil
	}}
	_, err := run(ctx, prog, Config{}, hk)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected Canceled, got %v", err)
	}
}

// TestDeadlineOnTheStripPath: with no tick hook a worker closes each swept
// strip with one watchdog tick and one cancellation poll (TestDeadline and
// TestCancellation set a hook, which closes every iteration on its own). A
// deadline must still end a long, mostly swept run promptly, with the
// context's error and no goroutine left behind. The whole run takes over a
// hundred times the deadline.
func TestDeadlineOnTheStripPath(t *testing.T) {
	prog := compile(t, programs.TOMCATV(129, 50), 4, core.DefaultOptions())
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Run(ctx, prog, Config{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected DeadlineExceeded, got %v", err)
	}
	t.Logf("ended %v after the start", time.Since(start))
	noLeak(t, before)
}

// noLeak fails the test when, five seconds on, more goroutines run than
// before a run did.
func noLeak(t *testing.T, before int) {
	t.Helper()
	for wait := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(wait) {
			t.Fatalf("%d goroutines after the run, %d before it", runtime.NumGoroutine(), before)
		}
	}
}

// TestConfigValidation: impossible configurations are rejected up front
// with coded E005 diagnostics rather than deadlocking at the first rendezvous.
func TestConfigValidation(t *testing.T) {
	prog := compile(t, commSource, 4, core.DefaultOptions())
	coded := func(err error) bool {
		var d *diag.Diagnostic
		return errors.As(err, &d) && d.Code == diag.CodeConfig
	}

	if _, err := Run(context.Background(), prog, Config{CheckpointInterval: -1}); !coded(err) {
		t.Fatalf("negative CheckpointInterval: expected a coded E005, got %v", err)
	}
	if _, err := Run(context.Background(), nil, Config{}); !coded(err) {
		t.Fatalf("nil program: expected a coded E005, got %v", err)
	}
}

// TestMailboxDepthOne: the executor must stay deadlock-free at the minimum
// mailbox depth (every send can rendezvous through a single buffer slot) —
// where a protocol message sent out of order (a shift's ring direction, a
// section's second owner, a reduction's hand-off, a branch outcome) would
// wedge — over the whole runnable corpus under every strategy, and leave no
// goroutine behind.
func TestMailboxDepthOne(t *testing.T) {
	for name, src := range oraclePrograms() {
		for stratName, opts := range strategies() {
			for _, nprocs := range []int{3, 4} {
				prog := compile(t, src, nprocs, opts)
				if _, err := sim.Run(prog, sim.Config{}); err != nil {
					continue // not a runnable program
				}
				before := runtime.NumGoroutine()
				if _, err := run(context.Background(), prog, Config{StallTimeout: 10 * time.Second}, hooks{mailboxDepth: 1}); err != nil {
					t.Fatalf("%s/%s/p%d: depth-1 run failed: %v", name, stratName, nprocs, err)
				}
				noLeak(t, before)
			}
		}
	}
}

// TestDivergenceNamesTheCounter: two replicated accounts that agree on
// everything but one counter are reported by that counter and its two
// values, not by a counter they share.
func TestDivergenceNamesTheCounter(t *testing.T) {
	prog := compile(t, commSource, 2, core.DefaultOptions())
	workers := make([]*worker, 2)
	for i := range workers {
		st, err := Config{}.NewState(prog)
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = &worker{proc: i, st: st, acct: eval.NewAccount(st, Config{})}
		workers[i].acct.M.Stats.Messages = 564
	}
	workers[1].acct.M.Stats.Retransmits = 3
	err := checkConsistency(workers)
	var de *DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("expected *DivergenceError, got %T: %v", err, err)
	}
	if !strings.Contains(de.What, "retransmits") || de.Got != 3 || de.Want != 0 {
		t.Fatalf("divergence reported as %q got %v want %v; want the retransmits, 3 against 0", de.What, de.Got, de.Want)
	}
}

// TestCountersCoverStats: the one counter list names every field of
// machine.Stats exactly once, so neither the oracle nor the replicated-account
// check can miss a counter.
func TestCountersCoverStats(t *testing.T) {
	typ := reflect.TypeOf(machine.Stats{})
	for i := 0; i < typ.NumField(); i++ {
		var s machine.Stats
		reflect.ValueOf(&s).Elem().Field(i).SetInt(1)
		differ := 0
		for _, c := range counters(machine.Stats{}, s) {
			if c.want != c.got {
				differ++
			}
		}
		if differ != 1 {
			t.Errorf("Stats.%s: %d counters differ, want 1", typ.Field(i).Name, differ)
		}
	}
}

// TestWorkerErrorMessage: the error type renders the processor and value.
func TestWorkerErrorMessage(t *testing.T) {
	we := &WorkerError{Proc: 3, PanicValue: "boom"}
	if got := we.Error(); !strings.Contains(got, "processor 3") || !strings.Contains(got, "boom") {
		t.Fatalf("unhelpful message: %q", got)
	}
}

// A payload's value count travels with it: a receiver expecting one value
// from a sender that packed none (or the reverse, or any other disagreement)
// gets a ProtocolError, not a stored 0 or a dropped value.
func TestPayloadLengthChecked(t *testing.T) {
	ex := &executor{n: 2, ctx: context.Background(), wd: newWatchdog(2, nil), edges: make([]edge, 4)}
	for i := range ex.edges {
		ex.edges[i].ch = make(chan message, 1)
	}
	newWorker := func(p int) *worker {
		return &worker{ex: ex, proc: p, sendSeq: make([]uint32, 2), recvSeq: make([]uint32, 2)}
	}
	a, b := newWorker(0), newWorker(1)
	for _, c := range []struct{ sent, want int }{{0, 1}, {1, 0}, {2, 1}, {1, 2}, {0, 0}, {1, 1}, {3, 3}} {
		sent := []float64{7, 8, 9}[:c.sent]
		if _, err := a.deliver(tagSection, 0, only(1), sent, false); err != nil {
			t.Fatal(err)
		}
		got := make([]float64, c.want)
		_, err := b.deliver(tagSection, 0, only(1), got, false)
		var pe *ProtocolError
		switch {
		case c.sent != c.want && !errors.As(err, &pe):
			t.Errorf("%d values sent, %d expected: err = %v, want a ProtocolError", c.sent, c.want, err)
		case c.sent == c.want && (err != nil || !reflect.DeepEqual(got, sent)):
			t.Errorf("%d values sent: got %v, %v", c.sent, got, err)
		}
	}
}
