package phpf

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"phpf/internal/diag"
	"phpf/internal/programs"
)

// TestRunOptionsValidate is the zero/negative/absurd-value gate the serving
// path runs before spending any cycles: every rejection is a coded E005.
func TestRunOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts RunOptions
		ok   bool
	}{
		{"zero value", RunOptions{}, true},
		{"explicit budget", RunOptions{MaxCells: 1 << 20}, true},
		{"negative MaxCells", RunOptions{MaxCells: -1}, false},
		{"negative MaxSeconds", RunOptions{MaxSeconds: -1}, false},
		{"NaN MaxSeconds", RunOptions{MaxSeconds: math.NaN()}, false},
		{"Inf CheckpointInterval", RunOptions{CheckpointInterval: math.Inf(1)}, false},
		{"absurd loss rate", RunOptions{Fault: &FaultPlan{Seed: 1, LossRate: 1.5}}, false},
		{"bad machine params", RunOptions{Params: badParams()}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate(0, "")
			if tc.ok {
				if err != nil {
					t.Fatalf("want valid, got %v", err)
				}
				return
			}
			var d *diag.Diagnostic
			if !errors.As(err, &d) || d.Code != diag.CodeConfig {
				t.Fatalf("want coded E005 rejection, got %T %v", err, err)
			}
		})
	}
}

// badParams poisons one field of an otherwise valid machine model.
func badParams() MachineParams {
	p := SP2Params()
	p.Latency = -1
	return p
}

// TestMaxCellsBudgetBothBackends drives the E006 budget through the public
// API: the same breach surfaces as a coded diagnostic from the simulator,
// the concurrent executor, and the differ.
func TestMaxCellsBudgetBothBackends(t *testing.T) {
	c, err := Compile(programs.Smooth(64, 2), 4, SelectedOptions())
	if err != nil {
		t.Fatal(err)
	}
	wantBudget := func(t *testing.T, err error) {
		t.Helper()
		if err == nil {
			t.Fatal("tiny MaxCells budget must reject the run")
		}
		var d *diag.Diagnostic
		if !errors.As(err, &d) || d.Code != diag.CodeBudget {
			t.Fatalf("want coded E006, got %T %v", err, err)
		}
	}
	for _, name := range Backends() {
		t.Run(name, func(t *testing.T) {
			b, _ := BackendByName(name)
			_, err := c.Execute(context.Background(), b, RunOptions{MaxCells: 16})
			wantBudget(t, err)
			rep, err := c.Execute(context.Background(), b, RunOptions{MaxCells: 1 << 20})
			if err != nil {
				t.Fatalf("generous budget must pass: %v", err)
			}
			if rep == nil || len(rep.Arrays) == 0 {
				t.Fatal("generous-budget run returned no arrays")
			}
		})
	}
	t.Run("diff", func(t *testing.T) {
		_, err := c.Diff(context.Background(), RunOptions{MaxCells: 16})
		wantBudget(t, err)
	})
}

// TestCompiledConcurrentReuse is the regression test for the serving
// contract that one *Compiled safely serves many simultaneous Execute and
// Diff calls (run under -race in CI): no backend may mutate shared compile
// artifacts, and results stay deterministic across interleavings.
func TestCompiledConcurrentReuse(t *testing.T) {
	c, err := Compile(programs.Smooth(32, 2), 4, SelectedOptions())
	if err != nil {
		t.Fatal(err)
	}
	sim, _ := BackendByName("sim")
	conc, _ := BackendByName("concurrent")

	// One reference run to compare every concurrent result against.
	ref, err := c.Execute(context.Background(), sim, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 24
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				rep, err := c.Execute(context.Background(), sim, RunOptions{})
				if err != nil {
					errs[i] = err
					return
				}
				if rep.Time != ref.Time {
					t.Errorf("goroutine %d: sim time %v, want %v (shared state mutated?)", i, rep.Time, ref.Time)
				}
			case 1:
				rep, err := c.Execute(context.Background(), conc, RunOptions{})
				if err != nil {
					errs[i] = err
					return
				}
				if rep.Time != ref.Time {
					t.Errorf("goroutine %d: concurrent modeled time %v, want %v", i, rep.Time, ref.Time)
				}
			case 2:
				dr, err := c.Diff(context.Background(), RunOptions{})
				if err != nil {
					errs[i] = err
					return
				}
				if !dr.Match() {
					t.Errorf("goroutine %d: diff mismatch under concurrent reuse: %v", i, dr.Mismatches)
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
}

// TestCompiledConcurrentFirstExecution races the very first executions of a
// freshly compiled program (run under -race in CI): the lowered form is built
// lazily on first execution and cached on the compiled program, so that build
// must happen exactly once however many runs — on either backend — start
// together, and all of them must see the same result.
func TestCompiledConcurrentFirstExecution(t *testing.T) {
	c, err := Compile(programs.Smooth(32, 2), 4, SelectedOptions())
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	reps := make([]*Report, goroutines)
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b := Simulator()
			if i%2 == 1 {
				b = Concurrent()
			}
			reps[i], errs[i] = c.Execute(context.Background(), b, RunOptions{})
		}(i)
	}
	wg.Wait()
	for i := range reps {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if reps[i].Time != reps[0].Time || reps[i].Stats != reps[0].Stats {
			t.Errorf("goroutine %d: time %v stats %+v, goroutine 0 had %v %+v",
				i, reps[i].Time, reps[i].Stats, reps[0].Time, reps[0].Stats)
		}
	}
}

// TestCacheKeyStability pins the cache key's discriminants: source, procs
// and options partition the key space; identical inputs collide. The reduce
// mode is a run option, not a discriminant: internal/serve's
// TestServeOneEntryPerProgram holds the cache to that.
func TestCacheKeyStability(t *testing.T) {
	src := programs.Smooth(16, 1)
	k := CacheKey(src, 4, SelectedOptions())
	if k != CacheKey(src, 4, SelectedOptions()) {
		t.Fatal("identical inputs must produce identical keys")
	}
	if k == CacheKey(src+" ", 4, SelectedOptions()) {
		t.Fatal("source must discriminate the key")
	}
	if k == CacheKey(src, 8, SelectedOptions()) {
		t.Fatal("procs must discriminate the key")
	}
	if k == CacheKey(src, 4, NaiveOptions()) {
		t.Fatal("options must discriminate the key")
	}
	if len(k) != 64 {
		t.Fatalf("key is %d hex chars, want 64 (sha256)", len(k))
	}
}
