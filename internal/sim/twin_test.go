package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"phpf/internal/core"
	"phpf/internal/fault"
	"phpf/internal/ir"
	"phpf/internal/programs"
	"phpf/internal/spmd"
	"phpf/internal/trace"
)

// twinLabel is the first label generalTwin gives out; no kernel uses one so
// high.
const twinLabel = 9000

// generalTwin returns src with a labelled CONTINUE before every END DO: a
// statement of zero flops — it charges and traces nothing — that makes no loop
// body a flat list of assignments, so the twin takes the general walk, one
// statement instance at a time, where src runs as owner runs.
func generalTwin(t *testing.T, src string) string {
	t.Helper()
	var out []string
	n := 0
	for _, line := range strings.Split(src, "\n") {
		if strings.EqualFold(strings.TrimSpace(line), "end do") {
			out = append(out, fmt.Sprintf("%d continue", twinLabel+n))
			n++
		}
		out = append(out, line)
	}
	if n == 0 || strings.Contains(src, fmt.Sprint(twinLabel)) {
		t.Fatalf("cannot mark the loop bodies of\n%s", src)
	}
	return strings.Join(out, "\n")
}

// twinOrdinals numbers the program's statements in order, leaving out the
// CONTINUEs generalTwin added: a statement and its twin get the same number.
func twinOrdinals(p *spmd.Program) map[int]int {
	ord := map[int]int{-1: -1}
	for _, st := range p.Res.Prog.Stmts {
		if st.Kind != ir.SContinue || st.Label < twinLabel {
			ord[st.ID] = len(ord)
		}
	}
	return ord
}

// sameRun compares everything a run reports: simulated time to the bit,
// statistics, the abort flag, memory, the event stream and every statement's
// profile, statements matched by twinOrdinals.
func sameRun(t *testing.T, p, q *spmd.Program, got, want *Result) {
	t.Helper()
	if math.Float64bits(got.Time) != math.Float64bits(want.Time) || got.Stats != want.Stats || got.Aborted != want.Aborted {
		t.Errorf("time %v stats %+v aborted %v\ntwin %v stats %+v aborted %v",
			got.Time, got.Stats, got.Aborted, want.Time, want.Stats, want.Aborted)
	}
	for name, w := range want.Arrays {
		g := got.Arrays[name]
		for i := range w {
			if len(g) != len(w) || math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Errorf("%s(%d) differs from the twin's", name, i+1)
				break
			}
		}
	}
	for name, w := range want.Scalars {
		if g, ok := got.Scalars[name]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("scalar %s = %v, the twin's %v", name, g, w)
		}
	}
	po, qo := twinOrdinals(p), twinOrdinals(q)
	ge, we := got.Trace.Events(), want.Trace.Events()
	if len(ge) != len(we) {
		t.Errorf("%d events, the twin %d", len(ge), len(we))
	}
	for i := 0; i < len(ge) && i < len(we); i++ {
		g, w := ge[i], we[i]
		g.Stmt, w.Stmt = int32(po[int(g.Stmt)]), int32(qo[int(w.Stmt)])
		if math.Float64bits(g.Time) != math.Float64bits(w.Time) || math.Float64bits(g.Dur) != math.Float64bits(w.Dur) {
			g.Time = math.NaN() // unequal below
		}
		if g != w {
			t.Errorf("event %d: %+v, the twin's %+v", i, ge[i], we[i])
			break
		}
	}
	type prof struct {
		instances int64
		seconds   uint64
	}
	profile := func(r *Result, ord map[int]int) map[int]prof {
		out := map[int]prof{}
		for _, sp := range r.HotStatements {
			if o, ok := ord[sp.Stmt.ID]; ok {
				out[o] = prof{sp.Instances, math.Float64bits(sp.Seconds)}
			}
		}
		return out
	}
	gp, wp := profile(got, po), profile(want, qo)
	if len(gp) != len(wp) {
		t.Errorf("%d statements profiled, the twin %d", len(gp), len(wp))
	}
	for o, g := range gp {
		if w := wp[o]; g != w {
			t.Errorf("statement %d: %d instances, %v s; the twin's %d, %v s", o,
				g.instances, math.Float64frombits(g.seconds), w.instances, math.Float64frombits(w.seconds))
		}
	}
}

// TestEveryModeAgreesWithTheGeneralWalk: whatever a run is asked to observe —
// events, a profile, a time limit, slowed processors, checkpoints and a crash
// — a program whose loops run as owner runs, quiet ones charged from their
// lists (per-instance transfers included where nothing can stop a run inside
// an iteration), reports what its twin on the general walk reports. No mode
// takes another path through a run, so none can tell.
func TestEveryModeAgreesWithTheGeneralWalk(t *testing.T) {
	noPriv := core.DefaultOptions()
	noPriv.PrivatizeArrays = false
	naive := core.DefaultOptions()
	naive.Scalars = core.ScalarsReplicated
	naive.AlignReductions = false
	producer := core.DefaultOptions()
	producer.Scalars = core.ScalarsProducerAligned
	traced := &trace.Options{Capacity: 1 << 21}
	// Which modes took effect, and how often, over the subtests that ran.
	bit, checkpoints, ran := map[string]int{}, int64(0), 0
	for _, k := range []struct {
		name, src string
		opts      core.Options
	}{
		{"tomcatv-selected", programs.TOMCATV(17, 2), core.DefaultOptions()},
		// Per-instance transfers of both kinds: multicasts under the
		// replication (and in appsp-1d-nopriv), point to point under the
		// producer alignment.
		{"tomcatv-naive", programs.TOMCATV(17, 2), naive},
		{"tomcatv-producer", programs.TOMCATV(17, 2), producer},
		{"dgefa", programs.DGEFA(16), core.DefaultOptions()},
		{"appsp-1d-nopriv", programs.APPSP(6, 6, 6, 1, false), noPriv},
		{"smooth", programs.Smooth(16, 2), core.DefaultOptions()},
		{"histogram", programs.Histogram(32, 8, 2), core.DefaultOptions()},
		{"dotsweep", programs.DotSweep(12, 6), core.DefaultOptions()},
	} {
		for _, nprocs := range []int{1, 4} {
			p := compileWith(t, k.src, nprocs, k.opts)
			q := compileWith(t, generalTwin(t, k.src), nprocs, k.opts)
			full, err := Run(p, Config{})
			if err != nil {
				t.Fatal(err)
			}
			slow := &fault.Plan{Slowdowns: []fault.Slowdown{
				{Proc: nprocs - 1, Factor: 3, Start: full.Time / 5, Duration: full.Time / 2}}}
			crash := &fault.Plan{Crashes: []fault.Crash{{Proc: nprocs / 2, At: full.Time / 2}}}
			for _, m := range []struct {
				name string
				cfg  Config
			}{
				{"plain", Config{}},
				{"trace", Config{Trace: traced}},
				{"profile", Config{Profile: true}},
				{"max-0.3", Config{MaxSeconds: 0.3 * full.Time}},
				{"max-0.7", Config{MaxSeconds: 0.7 * full.Time, Trace: traced}},
				{"slowdown", Config{Fault: slow}},
				{"slowdown-trace-profile", Config{Fault: slow, Trace: traced, Profile: true}},
				{"crash", Config{Fault: crash, CheckpointInterval: full.Time / 8}},
				{"crash-trace", Config{Fault: crash, CheckpointInterval: full.Time / 8, Trace: traced}},
			} {
				t.Run(fmt.Sprintf("%s/P=%d/%s", k.name, nprocs, m.name), func(t *testing.T) {
					got, err := Run(p, m.cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, err := Run(q, m.cfg)
					if err != nil {
						t.Fatal(err)
					}
					sameRun(t, p, q, got, want)
					if got.Aborted || got.Stats.Crashes == 1 || got.Time > full.Time {
						bit[m.name]++
					}
					checkpoints += got.Stats.Checkpoints
					ran++
				})
			}
		}
	}
	if ran != 16*9 {
		return // a -run filter: the counts below are of the whole matrix
	}
	// A run whose time is set by its last collective neither aborts nor
	// crashes before it ends; most are not, and each mode must have done what
	// it is named for on half of the 16 at least.
	for _, name := range []string{"max-0.3", "max-0.7", "slowdown", "slowdown-trace-profile", "crash", "crash-trace"} {
		if bit[name] < 8 {
			t.Errorf("mode %s took effect on %d programs of 16", name, bit[name])
		}
	}
	if bit["plain"]+bit["trace"]+bit["profile"] != 0 || checkpoints == 0 {
		t.Errorf("effects without a cause %v, or no checkpoint at all (%d)", bit, checkpoints)
	}
}
