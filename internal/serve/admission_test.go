package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func mustAdmit(t *testing.T, a *Admission, tenant string) func() {
	t.Helper()
	release, err := a.Admit(context.Background(), tenant)
	if err != nil {
		t.Fatalf("Admit(%s): %v", tenant, err)
	}
	return release
}

// TestQueueFullShedsImmediately: once a tenant's slots and waiting line are
// full, the next request is declined synchronously with QueueFull — it never
// blocks and never spawns anything.
func TestQueueFullShedsImmediately(t *testing.T) {
	a := NewAdmission(8, 1, 1) // 1 slot + line of 1 => 2 queue tokens

	r1 := mustAdmit(t, a, "t") // holds the slot
	defer r1()

	// Second request: takes the last queue token, then waits for the slot.
	waiting := make(chan error, 1)
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	go func() {
		release, err := a.Admit(wctx, "t")
		if release != nil {
			defer release()
		}
		waiting <- err
	}()
	for a.Queued("t") < 2 { // admitted + waiting
		time.Sleep(time.Millisecond)
	}

	// Third request: line full => immediate shed.
	start := time.Now()
	release, err := a.Admit(context.Background(), "t")
	if err == nil {
		release()
		t.Fatal("full line must shed")
	}
	var shed *ErrShed
	if !errors.As(err, &shed) || !shed.QueueFull {
		t.Fatalf("want QueueFull ErrShed, got %T %v", err, err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("full-line shed took %v, must be immediate", d)
	}
	if a.Sheds() != 1 {
		t.Fatalf("sheds = %d, want 1", a.Sheds())
	}

	// The waiter expires with a (non-QueueFull) shed when its context dies.
	wcancel()
	err = <-waiting
	if !errors.As(err, &shed) || shed.QueueFull {
		t.Fatalf("expired waiter: want waiting-timeout ErrShed, got %T %v", err, err)
	}
	if a.Sheds() != 2 {
		t.Fatalf("sheds = %d, want 2", a.Sheds())
	}
}

// TestPerTenantIsolation: one tenant saturating its own line cannot block a
// different tenant from admitting.
func TestPerTenantIsolation(t *testing.T) {
	a := NewAdmission(8, 1, 1)
	r := mustAdmit(t, a, "noisy")
	defer r()
	if _, err := a.Admit(contextWithTimeout(t, 10*time.Millisecond), "noisy"); err == nil {
		// the line has room for one waiter; fill it so the next sheds fast
		t.Log("waiter admitted unexpectedly fast (slot freed?)")
	}

	release, err := a.Admit(context.Background(), "quiet")
	if err != nil {
		t.Fatalf("quiet tenant blocked by noisy tenant: %v", err)
	}
	release()
}

// TestGlobalCap: the global pool bounds the whole process even when every
// tenant has spare slots of its own.
func TestGlobalCap(t *testing.T) {
	a := NewAdmission(1, 1, 4)
	r := mustAdmit(t, a, "a")

	_, err := a.Admit(contextWithTimeout(t, 20*time.Millisecond), "b")
	var shed *ErrShed
	if !errors.As(err, &shed) {
		t.Fatalf("tenant b should wait on the global pool and expire: %T %v", err, err)
	}

	r() // free the global slot; now b admits
	release, err := a.Admit(contextWithTimeout(t, time.Second), "b")
	if err != nil {
		t.Fatalf("Admit after release: %v", err)
	}
	release()
}

// TestReleaseIdempotent: calling release twice must not double-free a slot
// (which would silently widen the pool).
func TestReleaseIdempotent(t *testing.T) {
	a := NewAdmission(1, 1, 1)
	release := mustAdmit(t, a, "t")
	release()
	release() // second call is a no-op

	// If the double release freed two slots, two concurrent admits would
	// both succeed despite maxConcurrent=1.
	r1 := mustAdmit(t, a, "t")
	_, err := a.Admit(contextWithTimeout(t, 20*time.Millisecond), "t")
	if err == nil {
		t.Fatal("second admit succeeded: release() freed the slot twice")
	}
	r1()
}

// TestTenantTableBounded: hostile traffic inventing a tenant name per
// request must not grow the table without bound.
func TestTenantTableBounded(t *testing.T) {
	a := NewAdmission(8, 2, 2)
	for i := 0; i < 3*maxTrackedTenants; i++ {
		release, err := a.Admit(context.Background(), "hostile-"+itoa(i))
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		release()
	}
	a.mu.Lock()
	n := len(a.tenants)
	a.mu.Unlock()
	if n > maxTrackedTenants {
		t.Fatalf("tenant table grew to %d, bound is %d", n, maxTrackedTenants)
	}
}

// TestAdmitParallelStress exercises the slot accounting under -race: many
// goroutines churning admits across a few tenants, with the invariant that
// the admitted count converges and nothing deadlocks.
func TestAdmitParallelStress(t *testing.T) {
	a := NewAdmission(4, 2, 4)
	tenants := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	var admitted atomic.Int64
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
				release, err := a.Admit(ctx, tenants[(i+j)%len(tenants)])
				cancel()
				if err == nil {
					admitted.Add(1)
					release()
				}
			}
		}(i)
	}
	wg.Wait()
	if admitted.Load() == 0 {
		t.Fatal("stress run admitted nothing")
	}
	for _, tn := range tenants {
		if q := a.Queued(tn); q != 0 {
			t.Fatalf("tenant %s still shows %d queued after the churn", tn, q)
		}
	}
}

func contextWithTimeout(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for ; i > 0; i /= 10 {
		b = append([]byte{byte('0' + i%10)}, b...)
	}
	return string(b)
}
