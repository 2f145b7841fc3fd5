// Privatized IFs on the concurrent backend (State.aside): the IFs a worker
// leaves aside are the ones the SPMD dump marks, and the run notices a worker
// that leaves aside one it must walk.
package eval_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"phpf/internal/dist"
	"phpf/internal/eval"
	"phpf/internal/exec"
	"phpf/internal/ir"
	"phpf/internal/spmd"
)

// asideSource has two IFs whose execution sets move with the loop index, so
// no loop of them is walked all or none: s2's branches write array elements
// only, and s5's write t, aligned with a(i) under producer and selected
// alignment, whose holders change at each BLOCK boundary — there a worker
// outside the set walks the IF, elsewhere it leaves it aside.
const asideSource = `
program aside
parameter n = 16
real a(n), b(n), c(n)
real t
integer i, k
!hpf$ distribute (block) :: a
!hpf$ align b(i) with a(i)
!hpf$ align c(i) with a(i)
do i = 1, n
  a(i) = mod(i * 7, 5) * 0.25
  b(i) = 0.0
end do
do k = 1, 3
  do i = 1, n
    if (a(i) > 0.5) then
      b(i) = b(i) + a(i) * k
    else
      c(i) = a(i) - k
    end if
  end do
  do i = 1, n
    if (a(i) > 0.25) then
      t = a(i) + k
      c(i) = t * 2.0
    end if
  end do
end do
end
`

// condMaxSource is a conditional maximum, which only the collective
// reduction takes: its predicate reads s, so the running value is handed to
// the predicate's set at each BLOCK boundary, and from there on the holders
// are the set and a worker outside it leaves the IF aside. Before the first
// update they are every processor, and every worker walks the IF.
const condMaxSource = `
program condmax
parameter n = 16
real a(n), s
integer i
!hpf$ distribute (block) :: a
do i = 1, n
  a(i) = mod(i * 7, 5) * 1.0
end do
s = a(1)
do i = 1, n
  if (a(i) > s) then
    s = a(i)
  end if
end do
end
`

// asideCorpus is the shrinking corpus, asideSource and condMaxSource.
func asideCorpus() (names []string, sources map[string]string) {
	names, sources = shrinkCorpus()
	sources["aside"], sources["condmax"] = asideSource, condMaxSource
	return append(names, "aside", "condmax"), sources
}

// dumpAside returns the IFs (by predicate) phpfc -dump spmd marks [skipped
// outside its set]: the mark is printed right before the predicate's
// communication and guard lines.
func dumpAside(p *spmd.Program) map[int]bool {
	out := map[int]bool{}
	marked := false
	for _, line := range strings.Split(p.DumpSkips(), "\n") {
		switch line = strings.TrimSpace(line); {
		case strings.HasPrefix(line, "[skipped outside its set: "):
			marked = true
		case marked && strings.HasSuffix(line, " if (...)"):
			f := strings.Fields(line)
			id, _ := strconv.Atoi(strings.TrimPrefix(f[len(f)-3], "s"))
			out[id], marked = true, false
		}
	}
	return out
}

// TestAsidesMatchDump: over asideCorpus under every strategy at P = 3, 4 and
// 16, a worker leaves aside only IFs the dump marks, the accountant none, and
// the run agrees with the simulator. On asideSource at P = 4 under selected
// alignment both IFs are left aside, and s5 is also walked by workers outside
// its set, where t's holders would change.
func TestAsidesMatchDump(t *testing.T) {
	defer eval.SetAsideSeam(nil)
	names, sources := asideCorpus()
	for _, name := range names {
		for _, sname := range []string{"naive", "producer", "selected"} {
			for _, nprocs := range []int{3, 4, 16} {
				prog := compileOpts(t, sources[name], nprocs, strategies()[sname])
				cell := fmt.Sprintf("%s/%s/P=%d", name, sname, nprocs)
				want := dumpAside(prog)
				// By worker, written by its goroutine: instances left aside and
				// walked outside the set, by predicate.
				left, walked := make([]map[int]int, nprocs), make([]map[int]int, nprocs)
				for p := range left {
					left[p], walked[p] = map[int]int{}, map[int]int{}
				}
				eval.SetAsideSeam(func(proc int, st *ir.Stmt, set dist.ProcSet, me bool) bool {
					if me {
						left[proc][st.ID]++
					} else if !set.Contains(proc) {
						walked[proc][st.ID]++
					}
					return me
				})
				rep, err := exec.Diff(context.Background(), prog, exec.Config{})
				if err != nil {
					continue // an analysis example, which neither backend runs
				}
				if !rep.Match() {
					t.Errorf("%s: %v", cell, rep)
				}
				if len(left[0]) > 0 {
					t.Errorf("%s: the accountant left %d IFs aside", cell, len(left[0]))
				}
				for p := 1; p < nprocs; p++ {
					for id := range left[p] {
						if !want[id] {
							t.Errorf("%s: worker %d left s%d aside, which the dump does not mark", cell, p, id)
						}
					}
				}
				if cell == "aside/selected/P=4" {
					t.Logf("%s: left aside %v, walked outside the set %v", cell, left, walked)
					if !want[2] || !want[5] || left[1][2] == 0 || left[1][5] == 0 || walked[1][5] == 0 {
						t.Errorf("%s: want s2 and s5 marked, worker 1 leaving both aside and walking s5 where t's holders change", cell)
					}
				}
			}
		}
	}
}

// TestAsideSeamHasTeeth: the run notices a worker that leaves aside an IF it
// must walk. For every IF the dump marks, in asideCorpus under every strategy
// at P = 3 and 4, one worker other than the accountant is made to leave it
// aside at each instance whose set holds the worker, or, outside the set, at
// each one where a scalar's holders would change (t's in asideSource, s's in
// condMaxSource). Each such run must end in a mismatch with the simulator, a
// *StallError or a *ProtocolError — never in a hang, which the watchdog
// bounds — and leave no goroutine behind. In condMaxSource the worker leaves
// aside only the first such instance: outside the set, the run notices it only
// because an outcome names its IF instance, for at the next IF it walks the
// worker would read the missed outcome as its own, and the holders would
// agree again one IF later.
func TestAsideSeamHasTeeth(t *testing.T) {
	defer eval.SetAsideSeam(nil)
	names, sources := asideCorpus()
	cases, caught := map[string]int{}, map[string]int{}
	for _, name := range names {
		for _, sname := range []string{"naive", "producer", "selected"} {
			for _, nprocs := range []int{3, 4} {
				prog := compileOpts(t, sources[name], nprocs, strategies()[sname])
				marked := dumpAside(prog)
				if len(marked) == 0 {
					continue
				}
				for p := 1; p < nprocs; p++ {
					for _, kind := range []string{"member", "holders"} {
						cell := fmt.Sprintf("%s/%s/P=%d/worker %d/%s", name, sname, nprocs, p, kind)
						forced, once := false, name == "condmax"
						eval.SetAsideSeam(func(proc int, st *ir.Stmt, set dist.ProcSet, me bool) bool {
							if proc == p && marked[st.ID] && !me && set.Contains(p) == (kind == "member") && !(once && forced) {
								forced, me = true, true
							}
							return me
						})
						before := runtime.NumGoroutine()
						rep, err := exec.Diff(context.Background(), prog, exec.Config{StallTimeout: 250 * time.Millisecond})
						noLeak(t, before)
						if !forced {
							continue // the worker never meets such an instance
						}
						cases[kind]++
						if name == "condmax" {
							cases["condmax "+kind]++
						}
						var se *exec.StallError
						var pe *exec.ProtocolError
						switch {
						case err == nil && rep.Match():
							t.Errorf("%s: still matches the simulator", cell)
						case err != nil && !errors.As(err, &se) && !errors.As(err, &pe):
							t.Errorf("%s: ends in %v, want a mismatch, a stall or a protocol error", cell, err)
						default:
							caught[kind]++
						}
					}
				}
			}
		}
	}
	t.Logf("forced skips caught: %v of %v", caught, cases)
	if cases["member"] == 0 || cases["holders"] == 0 || cases["condmax holders"] == 0 {
		t.Errorf("forced skips %v: want both kinds, and the conditional maximum's holders", cases)
	}
}

// noLeak waits, as internal/exec's TestMailboxDepthOne does, for the
// goroutines a run started to end.
func noLeak(t *testing.T, before int) {
	t.Helper()
	for wait := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(wait) {
			t.Fatalf("%d goroutines after the run, %d before it", runtime.NumGoroutine(), before)
		}
	}
}
