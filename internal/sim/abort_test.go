package sim

import (
	"math"
	"testing"

	"phpf/internal/core"
)

// abortSrc has a shift-class communication vectorized out of the i-loop, so
// the first charge of a run is an aggregated transfer at loop entry.
const abortSrc = `
program t
parameter n = 256
real a(n), b(n)
integer i, iter
!hpf$ align b(i) with a(i)
!hpf$ distribute (block) :: a
do iter = 1, 50
  do i = 2, n
    a(i) = b(i-1) + 1.0
  end do
  do i = 1, n
    b(i) = a(i) * 0.5
  end do
end do
end
`

// TestAbortedFlagReporting: Result.Aborted is false on completed runs, true
// on cut-off runs, and the reported time exceeds the limit it tripped.
func TestAbortedFlagReporting(t *testing.T) {
	opts := core.DefaultOptions()
	full := runErr(t, abortSrc, 8, opts, Config{})
	if full.Aborted {
		t.Fatal("unlimited run reported aborted")
	}
	limit := full.Time / 4
	cut := runErr(t, abortSrc, 8, opts, Config{MaxSeconds: limit})
	if !cut.Aborted {
		t.Fatalf("run past %v not aborted", limit)
	}
	if cut.Time <= limit {
		t.Errorf("aborted time %v should exceed the limit %v it tripped", cut.Time, limit)
	}
	if cut.Time >= full.Time {
		t.Errorf("aborted run should stop early: %v vs full %v", cut.Time, full.Time)
	}
}

// TestAbortMidVectorizedComm: a limit small enough to trip on the very first
// aggregated transfer aborts from inside the vectorized-communication path —
// the communication is already charged (visible in Stats) but no statement
// of the loop body has executed.
func TestAbortMidVectorizedComm(t *testing.T) {
	opts := core.DefaultOptions()
	out := runErr(t, abortSrc, 8, opts, Config{MaxSeconds: 1e-12})
	if !out.Aborted {
		t.Fatal("expected abort at the first vectorized communication")
	}
	if out.Stats.Messages == 0 {
		t.Error("the aborting vectorized transfer should be counted in Stats")
	}
	// The b(i-1) shift is hoisted to the iter-loop entry; aborting there
	// means the first assignment never ran.
	for _, x := range out.Arrays["a"] {
		if x != 0 {
			t.Fatal("loop body executed despite mid-communication abort")
		}
	}
}

// TestAbortDisabledByZero: MaxSeconds 0 never aborts.
func TestAbortDisabledByZero(t *testing.T) {
	out := runErr(t, abortSrc, 8, core.DefaultOptions(), Config{MaxSeconds: 0})
	if out.Aborted {
		t.Error("MaxSeconds=0 must disable the cutoff")
	}
}

// TestAbortInsideOwnerRun: the limit is checked after every iteration of an
// owner run as it is after every iteration of the general walk. The loops of
// the communication-free throughput kernel run as owner runs (125 iterations
// a processor), and nothing but their statements advances the clocks, so a
// limit below the full time trips in mid-run. The same program with a labeled
// CONTINUE in each loop body — a statement that charges nothing, but makes
// the body no flat list of assignments — takes the general walk, as every
// loop did before owner runs. Both must stop on the same iteration — same
// time, same memory — and on the one the seed stopped on: the literals are
// its run's.
func TestAbortInsideOwnerRun(t *testing.T) {
	opts := core.DefaultOptions()
	src := tpSource(1000, 4)
	general := generalTwin(t, src)
	image := func(r *Result) uint64 { // FNV-1a over the bits of a and bb
		h := uint64(14695981039346656037)
		for _, name := range []string{"a", "bb"} {
			for _, x := range r.Arrays[name] {
				h = (h ^ math.Float64bits(x)) * 1099511628211
			}
		}
		return h
	}
	full := runErr(t, src, 8, opts, Config{})
	for _, seed := range []struct {
		frac        float64
		time, image uint64
	}{
		{0.013, 0x3e9b2dd8d6457178, 0x3b44da79586cdf65},
		{0.25, 0x3edfa561ced20aa2, 0x633cda79586cdf65},
		{0.617, 0x3ef368bd83aea0ef, 0x4a64da79586cdf65},
	} {
		limit := full.Time * seed.frac
		runs := runErr(t, src, 8, opts, Config{MaxSeconds: limit})
		walk := runErr(t, general, 8, opts, Config{MaxSeconds: limit})
		if !runs.Aborted || !walk.Aborted {
			t.Fatalf("limit %v: aborted %v (runs), %v (general walk)", limit, runs.Aborted, walk.Aborted)
		}
		if runs.Time != walk.Time || image(runs) != image(walk) {
			t.Errorf("limit %v: stopped at %v with memory %#x, the general walk at %v with %#x",
				limit, runs.Time, image(runs), walk.Time, image(walk))
		}
		if math.Float64bits(runs.Time) != seed.time || image(runs) != seed.image {
			t.Errorf("limit %v: stopped at %#x with memory %#x, the seed at %#x with %#x",
				limit, math.Float64bits(runs.Time), image(runs), seed.time, seed.image)
		}
	}
}

// TestAbortInsideSweptStrip: a swept run charges a strip of iterations, then
// evaluates them (eval/sweep.go), and a limit that trips on the charge of an
// iteration in mid-strip must leave what the loop leaves — that iteration's
// values the last ones stored, the scalars its own. The body runs in runs of 64
// iterations on 4 processors, two strips each, and keeps a real and an integer
// scalar per iteration; 97 limits spread over the run stop it at as many
// places, most of them inside a strip. The twin on the general walk, one
// statement instance at a time, is the reference: same time, same flag, same
// statistics, same memory.
func TestAbortInsideSweptStrip(t *testing.T) {
	const src = `
program t
parameter n = 256
real a(n), b(n), x
integer k
integer i, it
!hpf$ align b(i) with a(i)
!hpf$ distribute (block) :: a
do i = 1, n
  a(i) = i * 0.5
  b(i) = 0.0
end do
do it = 1, 3
  do i = 1, n
    x = a(i) * 1.5 + it
    k = x / 7
    b(i) = b(i) + x - k
    a(i) = x + i
  end do
end do
end
`
	opts := core.DefaultOptions()
	general := generalTwin(t, src)
	full := runErr(t, src, 4, opts, Config{})
	if full.Aborted {
		t.Fatal("unlimited run reported aborted")
	}
	stops := map[uint64]bool{}
	for f := 1; f < 98; f++ {
		limit := full.Time * float64(f) / 98
		runs := runErr(t, src, 4, opts, Config{MaxSeconds: limit})
		walk := runErr(t, general, 4, opts, Config{MaxSeconds: limit})
		if !runs.Aborted || runs.Time != walk.Time || runs.Stats != walk.Stats || runs.Aborted != walk.Aborted {
			t.Fatalf("limit %v: stopped at %v (aborted %v) with %+v, the general walk at %v (%v) with %+v",
				limit, runs.Time, runs.Aborted, runs.Stats, walk.Time, walk.Aborted, walk.Stats)
		}
		for name, w := range walk.Arrays {
			for i, g := range runs.Arrays[name] {
				if math.Float64bits(g) != math.Float64bits(w[i]) {
					t.Fatalf("limit %v: %s(%d) = %v, on the general walk %v", limit, name, i+1, g, w[i])
				}
			}
		}
		if len(runs.Scalars) != len(walk.Scalars) {
			t.Fatalf("limit %v: scalars %v, on the general walk %v", limit, runs.Scalars, walk.Scalars)
		}
		for name, w := range walk.Scalars {
			if g, ok := runs.Scalars[name]; !ok || math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("limit %v: scalar %s = %v, on the general walk %v", limit, name, g, w)
			}
		}
		stops[math.Float64bits(runs.Time)] = true
	}
	if len(stops) < 90 {
		t.Errorf("the limits stopped the run at %d different times: too few to fall inside strips", len(stops))
	}
}
