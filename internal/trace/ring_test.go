package trace

import (
	"fmt"
	"testing"
)

// newRing is New with a per-shard ring of capacity events instead of
// DefaultCapacity, small enough for a test to fill.
func newRing(nprocs, nshards, capacity int) *Recorder {
	r := New(nprocs, nshards, Options{})
	r.capacity = capacity
	return r
}

// TestRingWrapBoundary audits the ring shard at the wrap boundary: emitting
// exactly capacity events must keep all of them once each, and crossing the
// boundary by one must drop exactly the oldest — no off-by-one drop or
// duplicate in Events()'s chronological reassembly (ring[head:] + ring[:head]).
// The table pins capacity−1, capacity, and capacity+1, plus a full second
// revolution and one past it.
func TestRingWrapBoundary(t *testing.T) {
	const capacity = 8
	for _, n := range []int{capacity - 1, capacity, capacity + 1, 2 * capacity, 2*capacity + 1} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			r := newRing(1, 1, capacity)
			for i := 0; i < n; i++ {
				r.Emit(0, Event{Time: float64(i), Kind: Compute, Proc: 0, Peer: -1, Stmt: -1, Req: -1})
			}
			if got := r.Seen(); got != int64(n) {
				t.Fatalf("Seen = %d, want %d", got, n)
			}
			wantLen := n
			if wantLen > capacity {
				wantLen = capacity
			}
			if got := r.Len(); got != wantLen {
				t.Fatalf("Len = %d, want %d", got, wantLen)
			}
			evs := r.Events()
			if len(evs) != wantLen {
				t.Fatalf("Events returned %d events, want %d", len(evs), wantLen)
			}
			// The newest wantLen events, oldest first, each exactly once.
			first := n - wantLen
			for i, e := range evs {
				if want := float64(first + i); e.Time != want {
					t.Fatalf("event %d has time %v, want %v (dropped or duplicated at the wrap)", i, e.Time, want)
				}
			}
			// Exact counters never lose evicted events.
			if got := r.KindCount(Compute); got != int64(n) {
				t.Errorf("KindCount = %d, want %d", got, n)
			}
		})
	}
}
