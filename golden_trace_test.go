package phpf

import (
	"context"
	"path/filepath"
	"testing"
)

// goldenTrace runs figure1 on the simulator with tracing and renders the
// deterministic event stream.
func goldenTrace(t *testing.T) string {
	t.Helper()
	src, ok := FigureSource("figure1")
	if !ok {
		t.Fatal("figure1 missing")
	}
	c, err := Compile(src, 4, SelectedOptions())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rep, err := c.Execute(context.Background(), Simulator(), RunOptions{Trace: &TraceOptions{}})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	return rep.Trace.FormatEvents() + "\n" + rep.Trace.Summary()
}

// TestGoldenTrace locks down the simulator's traced event stream for
// figure1: simulated time is deterministic, so the rendered trace — every
// event with its timestamp, endpoints, class, and attribution, plus the
// exact aggregate summary — must be byte-identical to the checked-in golden
// file. Run with -update after an intentional cost-model or tracing change.
func TestGoldenTrace(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "traces", "figure1.trace.golden"), goldenTrace(t))
}

// TestGoldenTraceStability traces figure1 twice and requires byte-identical
// renderings, independent of the golden file.
func TestGoldenTraceStability(t *testing.T) {
	if a, b := goldenTrace(t), goldenTrace(t); a != b {
		t.Error("figure1 trace differs between two runs")
	}
}
