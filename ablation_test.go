package phpf

// Ablation tests: each design choice DESIGN.md calls out is toggled off and
// the regression measured, confirming the mechanism (not just the headline
// numbers) drives the results.

import (
	"context"
	"testing"

	"phpf/internal/programs"
)

// TestAblationVectorization: without message vectorization the TOMCATV
// stencil shifts degrade to per-iteration messages.
func TestAblationVectorization(t *testing.T) {
	src := programs.TOMCATV(33, 2)
	on, err := runCell(src, 8, SelectedOptions(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts := SelectedOptions()
	opts.DisableVectorization = true
	off, err := runCell(src, 8, opts, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if off.Seconds <= on.Seconds {
		t.Errorf("vectorization off (%v) should be slower than on (%v)",
			off.Seconds, on.Seconds)
	}
	if off.Seconds < 2*on.Seconds {
		t.Errorf("vectorization should matter substantially: off=%v on=%v",
			off.Seconds, on.Seconds)
	}
}

// TestAblationDependenceTest: without the Banerjee-style test, DGEFA's
// pivot-column broadcast cannot be hoisted out of the update loops.
func TestAblationDependenceTest(t *testing.T) {
	src := programs.DGEFA(64)
	on, err := runCell(src, 8, SelectedOptions(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts := SelectedOptions()
	opts.DisableDependenceTest = true
	off, err := runCell(src, 8, opts, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if off.Seconds <= on.Seconds {
		t.Errorf("dependence test off (%v) should be slower than on (%v)",
			off.Seconds, on.Seconds)
	}
}

// TestAblationControlPrivatization: executing predicates on every processor
// forces broadcasts of the predicate data (Figure 7's point).
func TestAblationControlPrivatization(t *testing.T) {
	src, _ := FigureSource("figure7")
	on, err := runCell(src, 8, SelectedOptions(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts := SelectedOptions()
	opts.PrivatizeControlFlow = false
	off, err := runCell(src, 8, opts, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if off.Seconds <= on.Seconds {
		t.Errorf("control privatization off (%v) should be slower than on (%v)",
			off.Seconds, on.Seconds)
	}
	if off.Stats.Broadcasts == 0 {
		t.Error("unprivatized predicates should broadcast")
	}
	if on.Stats.Broadcasts != 0 {
		t.Errorf("privatized predicates should not broadcast: %+v", on.Stats)
	}
}

// TestAblationValuesUnchanged: ablations may change time, never results.
func TestAblationValuesUnchanged(t *testing.T) {
	src := programs.DGEFA(16)
	base, err := Compile(src, 4, SelectedOptions())
	if err != nil {
		t.Fatal(err)
	}
	baseOut, err := base.Execute(context.Background(), Simulator(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mod := range []func(*Options){
		func(o *Options) { o.DisableVectorization = true },
		func(o *Options) { o.DisableDependenceTest = true },
		func(o *Options) { o.PrivatizeControlFlow = false },
		func(o *Options) { o.AlignReductions = false },
	} {
		opts := SelectedOptions()
		mod(&opts)
		c, err := Compile(src, 4, opts)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Execute(context.Background(), Simulator(), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		a, b := out.Arrays["a"], baseOut.Arrays["a"]
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("values differ at %d under ablation", i)
			}
		}
	}
}
