package phpf

import (
	"context"
	"testing"

	"phpf/internal/programs"
)

// TestDGEFALossyRunDeterministic is the headline acceptance property: two
// runs of DGEFA with the same fault seed and a 1% loss rate agree on every
// reported number, and retransmissions actually occurred.
func TestDGEFALossyRunDeterministic(t *testing.T) {
	src := programs.DGEFA(64)
	opts := RunOptions{Fault: &FaultPlan{Seed: 7, LossRate: 0.01}}
	run := func() *Report {
		c, err := Compile(src, 8, SelectedOptions())
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Execute(context.Background(), Simulator(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if a.Time != b.Time || a.Stats != b.Stats {
		t.Fatalf("same seed diverged:\n%v %+v\n%v %+v", a.Time, a.Stats, b.Time, b.Stats)
	}
	if a.Stats.Retransmits == 0 {
		t.Error("1% loss on DGEFA produced no retransmits")
	}
}

// TestFaultSweepShape: the sweep covers all strategies and rates, its
// zero-rate column matches the fault-free run, and lossy cells retransmit.
func TestFaultSweepShape(t *testing.T) {
	rates := []float64{0, 0.02}
	rows := runTable(t, FaultSweep("DGEFA n=48, p=8", programs.DGEFA(48), 8, rates, 3, 0), "faultsweep")
	if len(rows) != 3 {
		t.Fatalf("want 3 strategy rows, got %d", len(rows))
	}
	for _, row := range rows {
		if len(row.Cells) != len(rates) {
			t.Fatalf("%s: want %d cells, got %d", row.Label, len(rates), len(row.Cells))
		}
		if row.Cells[0].Stats.Retransmits != 0 {
			t.Errorf("%s: zero loss rate must not retransmit", row.Label)
		}
		if row.Cells[1].Stats.Retransmits == 0 {
			t.Errorf("%s: 2%% loss produced no retransmits", row.Label)
		}
		if !(row.Cells[1].Seconds > row.Cells[0].Seconds) {
			t.Errorf("%s: lossy run not slower: %v vs %v",
				row.Label, row.Cells[1].Seconds, row.Cells[0].Seconds)
		}
	}
}
