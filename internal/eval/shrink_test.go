// Shrunk loop bounds on the concurrent backend (walker.shrink): the loops a
// worker walks only in part are the ones the SPMD dump marks, and the oracle
// notices a worker that walks too little.
package eval_test

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"phpf/internal/eval"
	"phpf/internal/exec"
	"phpf/internal/ir"
	"phpf/internal/programs"
	"phpf/internal/spmd"
)

// afterLoops reads, past shrunk loops, what a worker that skipped their last
// iterations must still hold as the walk leaves it: the indices of a cyclic
// loop, of the block loop nested in it and of a block loop, and a scalar the
// last of them wrote.
const afterLoops = `
program afterloops
parameter n = 10
real a(n), b(n), c(n,n)
real t
integer i, j, k, m
!hpf$ distribute (block) :: a
!hpf$ align b(i) with a(i)
!hpf$ distribute (*,cyclic) :: c
do j = 1, n
  do k = 1, n
    c(k,j) = j + k * 0.5
  end do
end do
do i = 1, n
  t = i * 0.5
  a(i) = t + 1.0
end do
do m = 1, n
  b(m) = a(m) + i * 100.0 + j * 10.0 + k + t
end do
end
`

// shrinkCorpus is the figures and kernels the shrinking tests run.
func shrinkCorpus() (names []string, sources map[string]string) {
	sources = map[string]string{
		"afterloops": afterLoops,
		"tomcatv":    programs.TOMCATV(10, 2),
		"dgefa":      programs.DGEFA(12),
		"appsp1d":    programs.APPSP(4, 4, 4, 1, false),
		"appsp2d":    programs.APPSP(4, 4, 4, 1, true),
		"smooth":     programs.Smooth(24, 2),
		"histogram":  programs.Histogram(96, 16, 2),
		"dotsweep":   programs.DotSweep(16, 12),
	}
	for name, src := range programs.Figures {
		sources[name] = src
	}
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, sources
}

// dumpShrunk returns the loops the SPMD dump marks [shrunk bounds]: the dump
// prints a loop's marks right before its "do" line, loops in preorder.
func dumpShrunk(p *spmd.Program) map[*ir.Loop]bool {
	out := map[*ir.Loop]bool{}
	next, marked := 0, false
	for _, line := range strings.Split(p.Dump(), "\n") {
		switch line = strings.TrimSpace(line); {
		case strings.HasPrefix(line, "[shrunk bounds: "):
			marked = true
		case strings.HasPrefix(line, "do "):
			if marked {
				out[p.Res.Prog.Loops[next]] = true
			}
			next, marked = next+1, false
		}
	}
	return out
}

// TestShrunkLoopsMatchDump: over the corpus under every strategy at P = 3, 4
// and 16, the loops phpfc -dump spmd marks [shrunk bounds] are exactly the
// loops a worker other than the accountant walks only in part, each of its
// entries — and the run still agrees with the simulator.
func TestShrunkLoopsMatchDump(t *testing.T) {
	defer eval.SetShrinkSeam(nil)
	names, sources := shrinkCorpus()
	for _, name := range names {
		for _, sname := range []string{"naive", "producer", "selected"} {
			for _, nprocs := range []int{3, 4, 16} {
				prog := compileOpts(t, sources[name], nprocs, strategies()[sname])
				cell := fmt.Sprintf("%s/%s/P=%d", name, sname, nprocs)
				want := dumpShrunk(prog)
				got := make([]map[*ir.Loop]bool, nprocs) // by worker, written by its goroutine
				for p := range got {
					got[p] = map[*ir.Loop]bool{}
				}
				eval.SetShrinkSeam(func(proc int, l *ir.Loop, t0, _, c, _ int64) (int64, int64) {
					got[proc][l] = true
					return t0, c
				})
				rep, err := exec.Diff(context.Background(), prog, exec.Config{})
				if err != nil {
					continue // an analysis example, which neither backend runs
				}
				if !rep.Match() {
					t.Errorf("%s: %v", cell, rep)
				}
				if len(got[0]) > 0 {
					t.Errorf("%s: the accountant shrank %d loops", cell, len(got[0]))
				}
				for p := 1; p < nprocs; p++ {
					for l := range got[p] {
						if !want[l] {
							t.Errorf("%s: worker %d shrank the %s-loop (loop %d), which the dump does not mark", cell, p, l.Index.Name, l.ID)
						}
					}
					for l := range want {
						if !got[p][l] {
							t.Errorf("%s: worker %d walked all of the %s-loop (loop %d), which the dump marks shrunk", cell, p, l.Index.Name, l.ID)
						}
					}
				}
			}
		}
	}
}

// shrinkSurvivors are the narrowed workers of TestShrinkSeamHasTeeth whose
// runs still match the simulator. APPSP's 2-D mapping at P = 3 is a 3×1 grid:
// the j-loops shrink over grid dimension 0, 4 columns in blocks of 2, so
// processor 2 owns no column and computes nothing; the k-loops shrink over
// dimension 1, one coordinate wide, so every worker takes all their
// iterations, and the one narrowed away is one in which processor 2 has
// nothing to do.
var shrinkSurvivors = []string{
	"appsp2d/naive/P=3/worker 2",
	"appsp2d/producer/P=3/worker 2",
	"appsp2d/selected/P=3/worker 2",
}

// TestShrinkSeamHasTeeth: the differential oracle notices a worker that walks
// too little of a shrunk loop. For every corpus plan that shrinks a loop, at
// P = 3 and 4, narrowing one worker's iterations of every shrunk loop entry
// by its first own iteration must fail the run or its comparison with the
// simulator (but for the survivors, which lose nothing); widening them by one
// iteration, which only walks one that involves the worker in nothing, must
// not.
func TestShrinkSeamHasTeeth(t *testing.T) {
	defer eval.SetShrinkSeam(nil)
	names, sources := shrinkCorpus()
	var survived []string
	cases := 0
	for _, name := range names {
		for _, sname := range []string{"naive", "producer", "selected"} {
			for _, nprocs := range []int{3, 4} {
				prog := compileOpts(t, sources[name], nprocs, strategies()[sname])
				if len(prog.ShrinkableLoops()) == 0 {
					continue
				}
				for p := 1; p < nprocs; p++ {
					cell := fmt.Sprintf("%s/%s/P=%d/worker %d", name, sname, nprocs, p)
					narrowed := false
					eval.SetShrinkSeam(func(proc int, _ *ir.Loop, t0, m, c, n int64) (int64, int64) {
						if proc != p || c == 0 || t0 == n-1 {
							return t0, c // (a last iteration is walked all the same)
						}
						narrowed = true
						return t0 + m, c - 1
					})
					rep, err := exec.Diff(context.Background(), prog, exec.Config{StallTimeout: time.Second})
					if !narrowed {
						continue // the worker owns no iteration of a shrunk loop
					}
					cases++
					if err == nil && rep.Match() {
						survived = append(survived, cell)
					}
					eval.SetShrinkSeam(func(proc int, _ *ir.Loop, t0, m, c, n int64) (int64, int64) {
						switch {
						case proc != p:
						case t0+c*m < n:
							c++
						case t0 >= m:
							t0, c = t0-m, c+1
						}
						return t0, c
					})
					if rep, err := exec.Diff(context.Background(), prog, exec.Config{StallTimeout: time.Second}); err != nil || !rep.Match() {
						t.Errorf("%s: widened by one iteration: %v %v", cell, err, rep)
					}
				}
			}
		}
	}
	t.Logf("%d narrowed workers, %d caught", cases, cases-len(survived))
	if !slices.Equal(survived, shrinkSurvivors) {
		t.Errorf("narrowed and still matching the simulator:\n  %s\nwant:\n  %s",
			strings.Join(survived, "\n  "), strings.Join(shrinkSurvivors, "\n  "))
	}
}
