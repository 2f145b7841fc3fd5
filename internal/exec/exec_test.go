package exec

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"phpf/internal/comm"
	"phpf/internal/core"
	"phpf/internal/diag"
	"phpf/internal/programs"
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
// letting the test hang.
func TestWatchdogReportsWedgedWorkers(t *testing.T) {
	prog := compile(t, commSource, 4, core.DefaultOptions())
	cfg := Config{StallTimeout: 150 * time.Millisecond}
	hk := hooks{dropSend: func(proc int, req *comm.Requirement) bool {
		return proc == 1 // processor 1 goes silent on every planned send
	}}
	done := make(chan struct{})
	var res *Result
	var err error
	go func() {
		defer close(done)
		res, err = run(context.Background(), prog, cfg, hk)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run hung: watchdog did not fire")
	}
	if err == nil {
		t.Fatalf("expected a stall, got success: %+v", res.Stats)
	}
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("expected *StallError, got %T: %v", err, err)
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
		}
	}
	if !foundRecv {
		t.Fatalf("expected a receive blocked on the silent processor 1; got %v", se.Blocked)
	}
	if !strings.Contains(se.Error(), "blocked") {
		t.Fatalf("error text should name the blocked operations: %v", se)
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
// mailbox depth (every send can rendezvous through a single buffer slot).
func TestMailboxDepthOne(t *testing.T) {
	for _, src := range []string{commSource, programs.TOMCATV(10, 2), programs.DGEFA(12)} {
		prog := compile(t, src, 4, core.DefaultOptions())
		if _, err := run(context.Background(), prog, Config{StallTimeout: 10 * time.Second}, hooks{mailboxDepth: 1}); err != nil {
			t.Fatalf("depth-1 run failed: %v", err)
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
