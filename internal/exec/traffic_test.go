package exec

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"phpf/internal/core"
	"phpf/internal/programs"
)

// tagNames names the protocol tags; "planned" stands for every message of a
// planned requirement.
var tagNames = map[int]string{
	tagReduce: "reduce", tagReduceResult: "reduce-result", tagBarrier: "barrier",
	tagRelease: "release", tagCkpt: "ckpt", tagCkptRelease: "ckpt-release",
	tagRefetch: "refetch", tagCopyOut: "copy-out", tagMerge: "merge",
	tagMerged: "merged", tagSection: "section", tagBranch: "branch",
	tagHandOff: "hand-off", tagRedist: "redist",
}

// cyclicSum is commSource with a cyclic distribution: under the collective
// reduction the sum's update runs on a different processor at every
// iteration.
var cyclicSum = strings.Replace(commSource, "(block)", "(cyclic)", 1)

// TestProtocolTraffic pins the physical messages of a run per protocol tag.
// The cost model charges the planned messages only; what owner-computes
// execution sends beyond them — section elements a second owner holds,
// predicate outcomes, reduction hand-offs, merged rows, redistributed
// elements — no oracle checks, so a change that adds such traffic shows here
// first. The inputs, at P = 4, are exec_concurrent's four, the oracle
// corpus's TOMCATV, the two reduce-sweep kernels under the collective
// reduction, and cyclicSum, the one whose accumulator is handed along: one
// hand-off per iteration, as the updating processor changes at each.
func TestProtocolTraffic(t *testing.T) {
	for _, in := range []struct {
		name string
		src  string
		mode core.ReduceMode // 0: the default
		want string
	}{
		{"dgefa(48)", programs.DGEFA(48), 0, "branch=3384 planned=564"},
		{"smooth(64,2)", programs.Smooth(64, 2), 0, "planned=16"},
		{"histogram(256,32,4)", programs.Histogram(256, 32, 4), 0, "merge=3 merged=3"},
		{"dotsweep(48,24)", programs.DotSweep(48, 24), 0, "merge=3 merged=3 section=3"},
		{"tomcatv(10,2)", programs.TOMCATV(10, 2), 0, "merge=12 merged=12 planned=128"},
		{"histogram(96,16,2) collective", programs.Histogram(96, 16, 2), core.ReduceCollective, "planned=288"},
		{"dotsweep(16,12) collective", programs.DotSweep(16, 12), core.ReduceCollective, "planned=45 section=12"},
		{"cyclic sum collective", cyclicSum, core.ReduceCollective, "hand-off=14 planned=4 reduce-result=3 reduce=3"},
	} {
		prog := compile(t, in.src, 4, core.DefaultOptions())
		var mu sync.Mutex
		count := map[string]int{}
		_, err := run(context.Background(), prog, Config{Reduce: in.mode}, hooks{sent: func(tag int) {
			name := "planned"
			if tag < 0 {
				name = tagNames[tag]
			}
			mu.Lock()
			count[name]++
			mu.Unlock()
		}})
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		var parts []string
		for name, n := range count {
			parts = append(parts, fmt.Sprintf("%s=%d", name, n))
		}
		sort.Strings(parts)
		got := strings.Join(parts, " ")
		t.Logf("%-30s %s", in.name, got)
		if got != in.want {
			t.Errorf("%s: sent %s, want %s", in.name, got, in.want)
		}
	}
}
