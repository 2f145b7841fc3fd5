package exec

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"phpf/internal/comm"
	"phpf/internal/sim"
	"phpf/internal/trace"
)

// survivors are the requirements of the oracle corpus whose removal leaves
// the concurrent backend's final memory as the simulator's: program,
// strategy and processor count, then the requirement. EXPERIMENTS.md says why
// nothing read each.
var survivors = []string{
	"appsp1d/selected/p3: s12 v(1,i,j,(k - 1)): shift hoisted out of 3 loop(s) to it-loop (3 messages)",
	"appsp1d/selected/p3: s13 v(2,i,j,(k - 1)): shift hoisted out of 3 loop(s) to it-loop (3 messages)",
	"appsp1d/selected/p4: s12 v(1,i,j,(k - 1)): shift hoisted out of 3 loop(s) to it-loop (4 messages)",
	"appsp1d/selected/p4: s13 v(2,i,j,(k - 1)): shift hoisted out of 3 loop(s) to it-loop (4 messages)",
	"appsp1d/producer/p3: s12 v(1,i,j,(k - 1)): shift hoisted out of 3 loop(s) to it-loop (3 messages)",
	"appsp1d/producer/p3: s13 v(2,i,j,(k - 1)): shift hoisted out of 3 loop(s) to it-loop (3 messages)",
	"appsp1d/producer/p4: s12 v(1,i,j,(k - 1)): shift hoisted out of 3 loop(s) to it-loop (4 messages)",
	"appsp1d/producer/p4: s13 v(2,i,j,(k - 1)): shift hoisted out of 3 loop(s) to it-loop (4 messages)",
	"appsp2d/selected/p3: s4 rsd(1,i,(j - 1),k): shift hoisted out of 4 loop(s) to top level (3 messages)",
	"appsp2d/selected/p3: s5 v(1,i,j,(k - 1)): shift hoisted out of 3 loop(s) to it-loop (3 messages)",
	"appsp2d/selected/p3: s6 rsd(1,i,(j - 1),k): shift hoisted out of 4 loop(s) to top level (3 messages)",
	"appsp2d/selected/p3: s7 c(i,(j - 1),1): shift hoisted out of 4 loop(s) to top level (3 messages)",
	"appsp2d/selected/p3: s10 v(1,i,j,(k - 1)): shift hoisted out of 3 loop(s) to it-loop (3 messages)",
	"appsp2d/selected/p3: s11 v(2,i,j,(k - 1)): shift hoisted out of 3 loop(s) to it-loop (3 messages)",
	"appsp2d/selected/p4: s4 rsd(1,i,(j - 1),k): shift hoisted out of 4 loop(s) to top level (4 messages)",
	"appsp2d/selected/p4: s6 rsd(1,i,(j - 1),k): shift hoisted out of 4 loop(s) to top level (4 messages)",
	"appsp2d/selected/p4: s7 c(i,(j - 1),1): shift hoisted out of 4 loop(s) to top level (4 messages)",
	"appsp2d/producer/p3: s4 rsd(1,i,(j - 1),k): shift hoisted out of 4 loop(s) to top level (3 messages)",
	"appsp2d/producer/p3: s5 v(1,i,j,(k - 1)): shift hoisted out of 3 loop(s) to it-loop (3 messages)",
	"appsp2d/producer/p3: s6 rsd(1,i,(j - 1),k): shift hoisted out of 4 loop(s) to top level (3 messages)",
	"appsp2d/producer/p3: s7 c(i,(j - 1),1): shift hoisted out of 4 loop(s) to top level (3 messages)",
	"appsp2d/producer/p3: s10 v(1,i,j,(k - 1)): shift hoisted out of 3 loop(s) to it-loop (3 messages)",
	"appsp2d/producer/p3: s11 v(2,i,j,(k - 1)): shift hoisted out of 3 loop(s) to it-loop (3 messages)",
	"appsp2d/producer/p4: s4 rsd(1,i,(j - 1),k): shift hoisted out of 4 loop(s) to top level (4 messages)",
	"appsp2d/producer/p4: s6 rsd(1,i,(j - 1),k): shift hoisted out of 4 loop(s) to top level (4 messages)",
	"appsp2d/producer/p4: s7 c(i,(j - 1),1): shift hoisted out of 4 loop(s) to top level (4 messages)",
	"dgefa/selected/p3: s12 l: general hoisted out of 1 loop(s) to k-loop (22 messages)",
	"dgefa/selected/p3: s13 l: general hoisted out of 1 loop(s) to k-loop (22 messages)",
	"dgefa/selected/p4: s12 l: general hoisted out of 1 loop(s) to k-loop (33 messages)",
	"dgefa/selected/p4: s13 l: general hoisted out of 1 loop(s) to k-loop (33 messages)",
	"dgefa/producer/p3: s12 l: general hoisted out of 1 loop(s) to k-loop (22 messages)",
	"dgefa/producer/p3: s13 l: general hoisted out of 1 loop(s) to k-loop (22 messages)",
	"dgefa/producer/p4: s12 l: general hoisted out of 1 loop(s) to k-loop (33 messages)",
	"dgefa/producer/p4: s13 l: general hoisted out of 1 loop(s) to k-loop (33 messages)",
	"figure1/selected/p3: s2 b(i): shift hoisted out of 1 loop(s) to top level (3 messages)",
	"figure1/selected/p3: s2 c(i): shift hoisted out of 1 loop(s) to top level (3 messages)",
	"figure1/selected/p3: s5 y: shift per-instance (2 messages)",
	"figure1/selected/p4: s2 b(i): shift hoisted out of 1 loop(s) to top level (4 messages)",
	"figure1/selected/p4: s2 c(i): shift hoisted out of 1 loop(s) to top level (4 messages)",
	"figure1/selected/p4: s5 y: shift per-instance (3 messages)",
	"figure1/producer/p3: s5 y: shift per-instance (2 messages)",
	"figure1/producer/p3: s6 x: shift per-instance (2 messages)",
	"figure1/producer/p4: s5 y: shift per-instance (3 messages)",
	"figure1/producer/p4: s6 x: shift per-instance (3 messages)",
	"tomcatv/selected/p3: s4 x(i,(j + 1)): shift hoisted out of 2 loop(s) to it-loop (6 messages)",
	"tomcatv/selected/p3: s4 x(i,(j - 1)): shift hoisted out of 2 loop(s) to it-loop (6 messages)",
	"tomcatv/selected/p3: s5 y(i,(j + 1)): shift hoisted out of 2 loop(s) to it-loop (6 messages)",
	"tomcatv/selected/p3: s5 y(i,(j - 1)): shift hoisted out of 2 loop(s) to it-loop (6 messages)",
	"tomcatv/selected/p3: s9 x(i,(j + 1)): shift hoisted out of 2 loop(s) to it-loop (6 messages)",
	"tomcatv/selected/p3: s9 x(i,(j - 1)): shift hoisted out of 2 loop(s) to it-loop (6 messages)",
	"tomcatv/selected/p3: s10 y(i,(j + 1)): shift hoisted out of 2 loop(s) to it-loop (6 messages)",
	"tomcatv/selected/p3: s10 y(i,(j - 1)): shift hoisted out of 2 loop(s) to it-loop (6 messages)",
	"tomcatv/selected/p4: s4 x(i,(j + 1)): shift hoisted out of 2 loop(s) to it-loop (8 messages)",
	"tomcatv/selected/p4: s4 x(i,(j - 1)): shift hoisted out of 2 loop(s) to it-loop (8 messages)",
	"tomcatv/selected/p4: s5 y(i,(j + 1)): shift hoisted out of 2 loop(s) to it-loop (8 messages)",
	"tomcatv/selected/p4: s5 y(i,(j - 1)): shift hoisted out of 2 loop(s) to it-loop (8 messages)",
	"tomcatv/selected/p4: s9 x(i,(j + 1)): shift hoisted out of 2 loop(s) to it-loop (8 messages)",
	"tomcatv/selected/p4: s9 x(i,(j - 1)): shift hoisted out of 2 loop(s) to it-loop (8 messages)",
	"tomcatv/selected/p4: s10 y(i,(j + 1)): shift hoisted out of 2 loop(s) to it-loop (8 messages)",
	"tomcatv/selected/p4: s10 y(i,(j - 1)): shift hoisted out of 2 loop(s) to it-loop (8 messages)",
	"tomcatv/producer/p3: s9 x(i,(j + 1)): shift hoisted out of 2 loop(s) to it-loop (6 messages)",
	"tomcatv/producer/p3: s9 x(i,(j - 1)): shift hoisted out of 2 loop(s) to it-loop (6 messages)",
	"tomcatv/producer/p3: s10 aa: shift per-instance (32 messages)",
	"tomcatv/producer/p3: s10 y(i,(j + 1)): shift hoisted out of 2 loop(s) to it-loop (6 messages)",
	"tomcatv/producer/p3: s10 y(i,(j - 1)): shift hoisted out of 2 loop(s) to it-loop (6 messages)",
	"tomcatv/producer/p4: s8 yy: shift per-instance (48 messages)",
	"tomcatv/producer/p4: s9 x(i,(j + 1)): shift hoisted out of 2 loop(s) to it-loop (8 messages)",
	"tomcatv/producer/p4: s9 x(i,(j - 1)): shift hoisted out of 2 loop(s) to it-loop (8 messages)",
	"tomcatv/producer/p4: s10 aa: shift per-instance (48 messages)",
	"tomcatv/producer/p4: s10 y(i,(j + 1)): shift hoisted out of 2 loop(s) to it-loop (8 messages)",
	"tomcatv/producer/p4: s10 y(i,(j - 1)): shift hoisted out of 2 loop(s) to it-loop (8 messages)",
}

// TestDroppedRequirementFailsDiff gives the differential oracle teeth: with
// owner-computes execution a processor reads remote data only from the plan's
// messages, so taking one requirement out of the run — on both ends, with the
// accountant still charging it, so that the statistics agree and only memory
// can tell — must make Diff fail, for every requirement of every runnable
// corpus plan under the selected and the producer strategy at P = 3 and 4.
// A requirement whose removal nothing notices is listed in survivors: a
// message the plan sends that no instance reads.
func TestDroppedRequirementFailsDiff(t *testing.T) {
	var got []string
	cases, failed := 0, 0
	names := make([]string, 0, len(oraclePrograms()))
	for name := range oraclePrograms() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, strat := range []string{"selected", "producer"} {
			for _, nprocs := range []int{3, 4} {
				prog := compile(t, oraclePrograms()[name], nprocs, strategies()[strat])
				ref, err := sim.Run(prog, sim.Config{Trace: &trace.Options{}})
				if err != nil {
					continue // not a runnable program
				}
				msgs := map[int]int{}
				for _, e := range ref.Trace.Events() {
					if e.Kind == trace.Send && e.Req >= 0 {
						msgs[int(e.Req)]++
					}
				}
				for _, req := range prog.Plan.Reqs {
					cases++
					res, err := run(context.Background(), prog, Config{StallTimeout: time.Second},
						hooks{drop: func(r *comm.Requirement) bool { return r == req }})
					if err != nil {
						failed++
						continue
					}
					rep := &DiffReport{Sim: ref, Exec: res}
					rep.compare()
					if rep.Match() {
						got = append(got, fmt.Sprintf("%s/%s/p%d: %s (%d messages)", name, strat, nprocs, req, msgs[req.ID]))
					}
				}
			}
		}
	}
	t.Logf("%d requirements dropped: %d fail the run, %d differ in memory, %d survive", cases, failed, cases-failed-len(got), len(got))
	if !slices.Equal(got, survivors) {
		t.Errorf("survivors:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(survivors, "\n  "))
	}
}
