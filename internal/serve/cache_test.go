package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phpf"
	"phpf/internal/programs"
)

func compiled(t *testing.T) *phpf.Compiled {
	t.Helper()
	c, err := phpf.Compile(programs.Smooth(16, 1), 4, phpf.SelectedOptions())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheHitMissOutcomes(t *testing.T) {
	c := NewCache(4)
	want := compiled(t)
	var calls atomic.Int64
	compile := func() (*phpf.Compiled, error) { calls.Add(1); return want, nil }

	got, outcome, err := c.Get("k1", compile)
	if err != nil || got != want || outcome != CacheMiss {
		t.Fatalf("first Get = (%v, %v, %v), want (compiled, miss, nil)", got, outcome, err)
	}
	got, outcome, err = c.Get("k1", compile)
	if err != nil || got != want || outcome != CacheHit {
		t.Fatalf("second Get = (%v, %v, %v), want (compiled, hit, nil)", got, outcome, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("compile ran %d times, want 1", calls.Load())
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Coalesced != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	w := compiled(t)
	var calls atomic.Int64
	get := func(k string) CacheOutcome {
		t.Helper()
		_, outcome, err := c.Get(k, func() (*phpf.Compiled, error) { calls.Add(1); return w, nil })
		if err != nil {
			t.Fatal(err)
		}
		return outcome
	}

	get("a")
	get("b")
	get("a") // touch a: b becomes LRU
	get("c") // capacity 2: evicts b
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
	if outcome := get("a"); outcome != CacheHit {
		t.Fatalf("recently-touched a evicted (outcome %v)", outcome)
	}
	if outcome := get("b"); outcome != CacheMiss {
		t.Fatalf("LRU b should have been evicted (outcome %v)", outcome)
	}
	if ev := c.Stats().Evictions; ev < 1 {
		t.Fatalf("evictions = %d, want >= 1", ev)
	}
}

// TestCacheSingleflight is the 100-way stampede test (run under -race): one
// hundred concurrent identical compiles must run the compile function once —
// one miss, ninety-nine coalesced waiters sharing the leader's result.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache(8)
	w := compiled(t)
	var calls atomic.Int64
	gate := make(chan struct{})

	const waiters = 100
	var wg sync.WaitGroup
	outcomes := make([]CacheOutcome, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, outcome, err := c.Get("stampede", func() (*phpf.Compiled, error) {
				calls.Add(1)
				<-gate // hold every follower in the coalescing path
				return w, nil
			})
			if err != nil || got != w {
				t.Errorf("goroutine %d: (%v, %v)", i, got, err)
			}
			outcomes[i] = outcome
		}(i)
	}
	close(gate)
	wg.Wait()

	if calls.Load() != 1 {
		t.Fatalf("compile ran %d times under a %d-way stampede, want exactly 1", calls.Load(), waiters)
	}
	misses := 0
	for _, o := range outcomes {
		if o == CacheMiss {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d misses, want exactly 1 (the leader)", misses)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Coalesced != waiters-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d shared results", st, waiters-1)
	}
	if got := st.HitRate(); got < 0.98 {
		t.Fatalf("hit rate %v, want ~0.99", got)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := NewCache(4)
	w := compiled(t)
	var calls atomic.Int64
	boom := errors.New("boom")
	fail := func() (*phpf.Compiled, error) { calls.Add(1); return nil, boom }

	if _, _, err := c.Get("k", fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatal("a failed compile must not occupy a cache slot")
	}
	// The next attempt retries instead of replaying the failure.
	got, outcome, err := c.Get("k", func() (*phpf.Compiled, error) { calls.Add(1); return w, nil })
	if err != nil || got != w || outcome != CacheMiss {
		t.Fatalf("retry = (%v, %v, %v), want (compiled, miss, nil)", got, outcome, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("compile ran %d times, want 2", calls.Load())
	}
}

// TestCacheStampedeError: an error during a stampede propagates to every
// coalesced waiter, and none of them caches it.
func TestCacheStampedeError(t *testing.T) {
	c := NewCache(4)
	boom := fmt.Errorf("compile exploded")
	var calls atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	const followers = 49
	errs := make([]error, followers+1)
	wg.Add(1)
	go func() { // the leader holds the flight open until every follower joins
		defer wg.Done()
		_, _, errs[0] = c.Get("k", func() (*phpf.Compiled, error) {
			calls.Add(1)
			close(started)
			<-gate
			return nil, boom
		})
	}()
	<-started
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.Get("k", func() (*phpf.Compiled, error) {
				calls.Add(1)
				return nil, boom
			})
		}(i)
	}
	// The coalesced counter bumps before a follower blocks on the flight,
	// so this wait makes the release deterministic.
	for c.Stats().Coalesced < followers {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("compile ran %d times, want 1", calls.Load())
	}
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("waiter %d got %v, want the leader's error", i, err)
		}
	}
	if c.Len() != 0 {
		t.Fatal("failed stampede must leave the cache empty")
	}
}
