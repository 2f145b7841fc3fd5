package phpf

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"phpf/internal/programs"
)

// TestStrippedFiguresCompileInferMode: the directive-stripped figure copies
// carry no privatization assertions, yet compile cleanly with inference on.
func TestStrippedFiguresCompileInferMode(t *testing.T) {
	for _, name := range FigureNames() {
		src := programs.FiguresUnannotated[name]
		if src == "" {
			t.Fatalf("%s: no unannotated copy", name)
		}
		low := strings.ToLower(src)
		if strings.Contains(low, "independent") || strings.Contains(low, "nodeps") {
			t.Errorf("%s: privatization directive survived stripping:\n%s", name, src)
		}
		if _, err := Compile(src, 8, SelectedOptions()); err != nil {
			t.Errorf("%s: infer-mode compile of the stripped copy failed: %v", name, err)
		}
	}
}

// TestInferMatchesAnnotated is the acceptance oracle: every figure and every
// evaluation kernel compiled from its directive-stripped source in infer mode
// must run bitwise identically to the hand-annotated original — on the
// simulator across processor counts, and on the concurrent executor via the
// differential oracle. Programs that cannot execute on zero-initialized data
// (figure2/figure4 index arrays with values read from memory) must at least
// fail identically in both modes.
func TestInferMatchesAnnotated(t *testing.T) {
	ctx := context.Background()
	sources := []struct{ name, src string }{
		{"tomcatv", programs.TOMCATV(17, 2)},
		{"dgefa", programs.DGEFA(24)},
		{"appsp-1d", programs.APPSP(6, 6, 6, 1, false)},
		{"appsp-2d", programs.APPSP(6, 6, 6, 1, true)},
	}
	for _, name := range FigureNames() {
		src, _ := FigureSource(name)
		sources = append(sources, struct{ name, src string }{name, src})
	}
	for _, tc := range sources {
		t.Run(tc.name, func(t *testing.T) {
			stripped := programs.StripPrivatization(tc.src)
			runnable := true
			for _, procs := range []int{1, 4, 8} {
				ca, err := Compile(tc.src, procs, SelectedOptions())
				if err != nil {
					t.Fatalf("P=%d annotated: %v", procs, err)
				}
				cs, err := Compile(stripped, procs, SelectedOptions())
				if err != nil {
					t.Fatalf("P=%d stripped: %v", procs, err)
				}
				ra, errA := ca.Execute(ctx, Simulator(), RunOptions{})
				rs, errS := cs.Execute(ctx, Simulator(), RunOptions{})
				if errA != nil || errS != nil {
					runnable = false
					if (errA == nil) != (errS == nil) {
						t.Fatalf("P=%d: annotated run err %v, stripped run err %v", procs, errA, errS)
					}
					continue // fails identically in both modes (e.g. OOB on zero data)
				}
				compareReports(t, procs, ra, rs)
			}
			if !runnable {
				return
			}
			// Concurrent executor vs simulator on the inferred mapping.
			cs, err := Compile(stripped, 4, SelectedOptions())
			if err != nil {
				t.Fatal(err)
			}
			rep, err := cs.Diff(ctx, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Match() {
				t.Errorf("differential oracle mismatch on inferred mapping:\n%s", rep)
			}
		})
	}
}

// compareReports asserts bitwise-equal final memory between two runs (NaNs
// compare by bit pattern, so identical NaN payloads pass).
func compareReports(t *testing.T, procs int, a, b *Report) {
	t.Helper()
	bitsEq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for name, av := range a.Scalars {
		if bv, ok := b.Scalars[name]; !ok || !bitsEq(av, bv) {
			t.Errorf("P=%d scalar %s: annotated %v, inferred %v", procs, name, av, bv)
		}
	}
	if len(a.Scalars) != len(b.Scalars) {
		t.Errorf("P=%d scalar sets differ: %d vs %d", procs, len(a.Scalars), len(b.Scalars))
	}
	for name, av := range a.Arrays {
		bv := b.Arrays[name]
		if len(av) != len(bv) {
			t.Errorf("P=%d array %s: lengths %d vs %d", procs, name, len(av), len(bv))
			continue
		}
		for i := range av {
			if !bitsEq(av[i], bv[i]) {
				t.Errorf("P=%d array %s[%d]: annotated %v, inferred %v", procs, name, i, av[i], bv[i])
				break
			}
		}
	}
	if len(a.Arrays) != len(b.Arrays) {
		t.Errorf("P=%d array sets differ: %d vs %d", procs, len(a.Arrays), len(b.Arrays))
	}
}

// FuzzAutoPriv: infer-mode compilation must never panic, and whenever both
// directive mode and infer mode accept a program, their runs must agree
// bitwise on final memory (inference may only remove communication, never
// change semantics).
func FuzzAutoPriv(f *testing.F) {
	for _, name := range FigureNames() {
		src, _ := FigureSource(name)
		f.Add(src)
		f.Add(programs.FiguresUnannotated[name])
	}
	f.Add(programs.Smooth(16, 2))
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			t.Skip("oversized input")
		}
		dirOpts := SelectedOptions()
		dirOpts.Privatization = PrivDirectives
		infOpts := SelectedOptions()
		infOpts.Privatization = PrivInfer
		cDir, errDir := Compile(src, 4, dirOpts)
		cInf, errInf := Compile(src, 4, infOpts)
		if (errDir == nil) != (errInf == nil) {
			t.Fatalf("modes disagree on acceptance: directives=%v infer=%v", errDir, errInf)
		}
		if errDir != nil {
			t.Skip("rejected in both modes")
		}
		run := RunOptions{MaxSeconds: 5, MaxCells: 1 << 16}
		rDir, errDir := cDir.Execute(context.Background(), Simulator(), run)
		rInf, errInf := cInf.Execute(context.Background(), Simulator(), run)
		if errDir != nil || errInf != nil {
			// Resource-bound aborts (cell limit) are acceptable in either
			// mode; semantics are only comparable on completed runs.
			t.Skip("bounded run")
		}
		if rDir.Aborted || rInf.Aborted {
			t.Skip("time-bounded run")
		}
		compareReports(t, 4, rDir, rInf)
	})
}

// coverageRepro is a k-iteration over a (*,block) array that writes c(j) in
// one inner loop and reads it in the next, with the two loop headers given.
func coverageRepro(write, read string) string {
	return fmt.Sprintf(`
program coverage
parameter n = 16
parameter m = 21
real a(m,n), b(m,n), c(m)
integer j, k
!hpf$ align b(i,j) with a(i,j)
!hpf$ distribute (*,block) :: a
do k = 1, n
  do j = %s
    c(j) = a(j,k) * 2.0
  end do
  do j = %s
    b(j,k) = c(j) + 1.0
  end do
end do
end
`, write, read)
}

// TestInferenceKnowsTheStep: a write loop covers its range only at step +1 and
// a read loop's range is taken in the direction it runs. The unit-step program
// is inferred private (and runs without a message); with the write loop
// strided, or the read loop descending from above the written range, the
// inference serializes c with a W103 that names the read — where the parent
// commit inferred NEW and sent nothing.
func TestInferenceKnowsTheStep(t *testing.T) {
	for _, tc := range []struct {
		name, write, read string
		private           bool
	}{
		{"unit steps", "1, n", "1, n", true},
		{"strided write", "1, n, 2", "1, n", false},
		{"descending read from above", "1, n", "n+5, 1, -1", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Compile(coverageRepro(tc.write, tc.read), 4, SelectedOptions())
			if err != nil {
				t.Fatal(err)
			}
			want := "c wrt k-loop: serialized"
			if tc.private {
				want = "c wrt k-loop: private [inserted]"
			}
			if got := c.ExplainPriv(); !strings.Contains(got, want) {
				t.Errorf("-explain-priv lacks %q:\n%s", want, got)
			}
			warned := false
			for _, d := range c.Diags() {
				if d.Code == "W103" && d.Subject == "c" {
					warned = true
					if !strings.Contains(d.Msg, "c(j) at 14:5 is not covered by writes earlier in the iteration") {
						t.Errorf("W103 does not name the read and the reason: %s", d.Msg)
					}
				}
			}
			if warned == tc.private {
				t.Errorf("W103 for c: %v, want %v", warned, !tc.private)
			}
			rep, err := c.Execute(context.Background(), Simulator(), RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Stats.Messages == 0; got != tc.private {
				t.Errorf("%d messages; a private c sends none, a serialized one must communicate", rep.Stats.Messages)
			}
		})
	}
}
