package exec

import (
	"context"
	"slices"
	"testing"

	"phpf/internal/core"
	"phpf/internal/eval"
	"phpf/internal/programs"
)

// TestWorkerCensus: each worker runs the value semantics of the statement
// instances its processor computes and of no others. For the four
// exec_concurrent inputs of the benchmark at P = 4 it pins, per worker, how
// many instances' value semantics ran (eval.State.Computed), and holds each
// to the owner-run skip share TestOwnerRunSkipShare (internal/eval) measures:
// a worker runs at most the share of the walk's instances that is not
// skippable for it, plus two points. The simulator, which computes every
// instance, keeps the counts TestRunCensus pins. It also pins, per worker,
// how many iterations of the loops the plan shrinks it walked and skipped
// (eval.State.Shrunk): the accountant, worker 0, walks them all; the others
// walk their own, and the last one of a loop entry whose body writes a
// scalar. Shrinking moves no computed count.
func TestWorkerCensus(t *testing.T) {
	for _, in := range []struct {
		name      string
		src       string
		instances int64     // statement instances of the walk (TestOwnerRunSkipShare)
		skippable []float64 // its skip share, by worker
		want      []int64
		shrunk    [][2]int64 // walked and skipped, by worker
	}{
		{"dgefa(48)", programs.DGEFA(48), 44026, []float64{0.676, 0.670, 0.664, 0.658}, []int64{10244, 10556, 10880, 11171},
			[][2]int64{{1224, 0}, {347, 877}, {359, 865}, {324, 900}}},
		{"smooth(64,2)", programs.Smooth(64, 2), 560, []float64{0.757, 0.743, 0.743, 0.757}, []int64{136, 144, 144, 136},
			[][2]int64{{312, 0}, {82, 230}, {82, 230}, {76, 236}}},
		{"histogram(256,32,4)", programs.Histogram(256, 32, 4), 1280, []float64{0.150, 0.150, 0.150, 0.150}, []int64{512, 512, 512, 512},
			[][2]int64{{}, {}, {}, {}}},
		{"dotsweep(48,24)", programs.DotSweep(48, 24), 3432, []float64{0.748, 0.748, 0.748, 0.755}, []int64{864, 864, 864, 840},
			[][2]int64{{48, 0}, {12, 36}, {12, 36}, {12, 36}}},
	} {
		prog := compile(t, in.src, 4, core.DefaultOptions())
		var got []int64
		var shrunk [][2]int64
		_, err := run(context.Background(), prog, Config{}, hooks{done: func(states []*eval.State) {
			for _, st := range states {
				got = append(got, st.Computed())
				c := st.Shrunk()
				shrunk = append(shrunk, [2]int64{c.Walked, c.Skipped})
			}
		}})
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		t.Logf("%-20s %v of %d; shrunk loops (walked, skipped) %v", in.name, got, in.instances, shrunk)
		if !slices.Equal(got, in.want) {
			t.Errorf("%s: computed %v, want %v", in.name, got, in.want)
		}
		if !slices.Equal(shrunk, in.shrunk) {
			t.Errorf("%s: shrunk loops %v, want %v", in.name, shrunk, in.shrunk)
		}
		for w, n := range got {
			if limit := (1 - in.skippable[w] + 0.02) * float64(in.instances); float64(n) > limit {
				t.Errorf("%s: worker %d computed %d instances, more than %.0f", in.name, w, n, limit)
			}
		}
	}
}
