package phpf

import (
	"sort"
	"strings"
	"testing"
)

// TestPipelineOrderIsTheList is the census the pipeline's design stands on:
// over the thirteen corpus programs × Strategies() × the three privatization
// modes × P ∈ {1, 4, 16} — 351 compilations — the executed pass sequence
// (Profile().Stats, re-runs starred) takes exactly two shapes: the list, and
// the list with cfg, ssa and constprop re-run directly after induction for
// the one program whose induction variable is rewritten.
func TestPipelineOrderIsTheList(t *testing.T) {
	const (
		list  = "ir cfg ssa constprop induction autopriv reduceplan mapping analyze slots spmd"
		rerun = "ir cfg ssa constprop induction cfg* ssa* constprop* autopriv reduceplan mapping analyze slots spmd"
	)
	count := map[string]int{}
	programs := map[string]map[string]bool{}
	for _, prog := range decisionCorpus() {
		for _, strat := range Strategies() {
			for _, priv := range []PrivMode{PrivDirectives, PrivInfer, PrivInferStrict} {
				for _, nprocs := range []int{1, 4, 16} {
					opts := strat.Opts
					opts.Privatization = priv
					c, err := Compile(prog.src, nprocs, opts)
					if err != nil {
						t.Fatalf("%s/%s/%s/p%d: %v", prog.name, strat.Name, priv, nprocs, err)
					}
					var names []string
					for _, s := range c.Profile().Stats {
						name := s.Name
						if s.Rerun {
							name += "*"
						}
						names = append(names, name)
					}
					seq := strings.Join(names, " ")
					count[seq]++
					if programs[seq] == nil {
						programs[seq] = map[string]bool{}
					}
					programs[seq][prog.name] = true
				}
			}
		}
	}
	if len(count) != 2 || count[list] != 324 || count[rerun] != 27 {
		t.Errorf("pass sequences over the census: %v, want 324 × the list and 27 × the list with the re-run", count)
	}
	var rewritten []string
	for name := range programs[rerun] {
		rewritten = append(rewritten, name)
	}
	sort.Strings(rewritten)
	if got := strings.Join(rewritten, " "); got != "figure1" {
		t.Errorf("programs that re-run cfg, ssa and constprop: %q, want figure1 alone", got)
	}
	if n := len(programs[list]); n != 12 {
		t.Errorf("%d programs compile by the plain list, want the other 12", n)
	}
}
