package fault

import (
	"math"
	"testing"
)

// TestDeterminism: the same plan makes bit-identical decisions across
// injector instances.
func TestDeterminism(t *testing.T) {
	p := &Plan{Seed: 42, LossRate: 0.1, DupRate: 0.05}
	a, b := NewInjector(p), NewInjector(p)
	for i := 0; i < 10000; i++ {
		if a.DropMessage() != b.DropMessage() {
			t.Fatalf("drop decision %d diverged", i)
		}
		if a.DuplicateMessage() != b.DuplicateMessage() {
			t.Fatalf("dup decision %d diverged", i)
		}
	}
}

// TestSeedChangesDecisions: different seeds give different drop sequences.
func TestSeedChangesDecisions(t *testing.T) {
	a := NewInjector(&Plan{Seed: 1, LossRate: 0.5})
	b := NewInjector(&Plan{Seed: 2, LossRate: 0.5})
	same := 0
	for i := 0; i < 1000; i++ {
		if a.DropMessage() == b.DropMessage() {
			same++
		}
	}
	if same == 1000 {
		t.Fatal("seeds 1 and 2 produced identical decision streams")
	}
}

// TestLossRateCalibration: the empirical drop frequency tracks the rate.
func TestLossRateCalibration(t *testing.T) {
	for _, rate := range []float64{0.01, 0.1, 0.5} {
		in := NewInjector(&Plan{Seed: 7, LossRate: rate})
		n, drops := 200000, 0
		for i := 0; i < n; i++ {
			if in.DropMessage() {
				drops++
			}
		}
		got := float64(drops) / float64(n)
		if math.Abs(got-rate) > 0.01 {
			t.Errorf("rate %v: empirical %v", rate, got)
		}
	}
}

func TestInactivePlan(t *testing.T) {
	if NewInjector(nil) != nil {
		t.Error("nil plan must yield nil injector")
	}
	if NewInjector(&Plan{Seed: 5}) != nil {
		t.Error("plan with no faults must yield nil injector")
	}
	p := &Plan{LossRate: 0.1}
	if NewInjector(p) == nil {
		t.Error("plan with loss must yield an injector")
	}
}

func TestSlowFactor(t *testing.T) {
	in := NewInjector(&Plan{Slowdowns: []Slowdown{
		{Proc: 2, Factor: 1.5, Start: 1, Duration: 2},
		{Proc: 2, Factor: 2, Start: 2},
	}})
	cases := []struct {
		proc int
		now  float64
		want float64
	}{
		{0, 1.5, 1},   // other processor
		{2, 0.5, 1},   // before start
		{2, 1.5, 1.5}, // first window only
		{2, 2.5, 3},   // overlapping windows compound
		{2, 4.0, 2},   // first expired, unbounded one persists
	}
	for _, c := range cases {
		if got := in.SlowFactor(c.proc, c.now); got != c.want {
			t.Errorf("SlowFactor(%d, %v) = %v, want %v", c.proc, c.now, got, c.want)
		}
	}
}

func TestPendingCrash(t *testing.T) {
	in := NewInjector(&Plan{Crashes: []Crash{{Proc: 3, At: 2.0}, {Proc: 1, At: 1.0}}})
	if c := in.PendingCrash(0.5); c != nil {
		t.Fatalf("no crash due at 0.5, got %+v", c)
	}
	c := in.PendingCrash(5)
	if c == nil || c.Proc != 1 {
		t.Fatalf("earliest crash first: got %+v", c)
	}
	c = in.PendingCrash(5)
	if c == nil || c.Proc != 3 {
		t.Fatalf("second crash next: got %+v", c)
	}
	if c = in.PendingCrash(5); c != nil {
		t.Fatalf("crashes fire once, got %+v", c)
	}
}

func TestParseCrashes(t *testing.T) {
	got, err := ParseCrashes(" 3@0.5, 7@1.2 ")
	if err != nil {
		t.Fatal(err)
	}
	want := []Crash{{Proc: 3, At: 0.5}, {Proc: 7, At: 1.2}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if got, err := ParseCrashes(""); err != nil || got != nil {
		t.Fatalf("empty spec: got %+v, %v", got, err)
	}
	for _, bad := range []string{"3", "x@1", "3@y", "3@1@2",
		"@1", "3@", "@", "3@0.5,", ",3@0.5", "3@0.5,,7@1.2", "3 @ 0.5"} {
		if _, err := ParseCrashes(bad); err == nil {
			t.Errorf("ParseCrashes(%q): want error", bad)
		}
	}
}

// TestParsedNegativesRejectedByValidate: negative times and processors are
// syntactically valid specs — the parser accepts them and Plan.Validate is
// the layer that rejects them, so a CLI typo still dies with a clear error.
func TestParsedNegativesRejectedByValidate(t *testing.T) {
	crashes, err := ParseCrashes("3@-0.5")
	if err != nil {
		t.Fatalf("negative time should parse: %v", err)
	}
	if err := (&Plan{Crashes: crashes}).Validate(); err == nil {
		t.Error("negative crash time passed Validate")
	}
	crashes, err = ParseCrashes("-3@0.5")
	if err != nil {
		t.Fatalf("negative processor should parse: %v", err)
	}
	if err := (&Plan{Crashes: crashes}).Validate(); err == nil {
		t.Error("negative crash processor passed Validate")
	}
	slows, err := ParseSlowdowns("2:1.5:-0.1")
	if err != nil {
		t.Fatalf("negative start should parse: %v", err)
	}
	if err := (&Plan{Slowdowns: slows}).Validate(); err == nil {
		t.Error("negative slowdown start passed Validate")
	}
	slows, err = ParseSlowdowns("2:0.5")
	if err != nil {
		t.Fatalf("sub-unit factor should parse: %v", err)
	}
	if err := (&Plan{Slowdowns: slows}).Validate(); err == nil {
		t.Error("slowdown factor < 1 passed Validate")
	}
}

func TestParseSlowdowns(t *testing.T) {
	got, err := ParseSlowdowns("2:1.5:0.1:0.4,5:2")
	if err != nil {
		t.Fatal(err)
	}
	want := []Slowdown{{Proc: 2, Factor: 1.5, Start: 0.1, Duration: 0.4}, {Proc: 5, Factor: 2}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if got, err := ParseSlowdowns("  "); err != nil || got != nil {
		t.Fatalf("blank spec: got %+v, %v", got, err)
	}
	for _, bad := range []string{"2", "x:2", "2:y", "2:2:z", "2:2:0:w", "1:2:3:4:5",
		":2", "2:", ":", "2:1.5,", ",2:1.5", "2:1.5,,3:2", "2 : 1.5"} {
		if _, err := ParseSlowdowns(bad); err == nil {
			t.Errorf("ParseSlowdowns(%q): want error", bad)
		}
	}
}

func TestPlanValidate(t *testing.T) {
	good := &Plan{Seed: 1, LossRate: 0.5, DupRate: 0.1, RTO: 1e-3,
		Slowdowns: []Slowdown{{Proc: 0, Factor: 2}},
		Crashes:   []Crash{{Proc: 1, At: 0.5}}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(); err != nil {
		t.Fatalf("nil plan rejected: %v", err)
	}
	bad := []*Plan{
		{LossRate: 1},
		{LossRate: -0.1},
		{LossRate: math.NaN()},
		{DupRate: 1.5},
		{RTO: math.Inf(1)},
		{RTO: -1},
		{Slowdowns: []Slowdown{{Proc: -1, Factor: 2}}},
		{Slowdowns: []Slowdown{{Proc: 0, Factor: 0.5}}},
		{Slowdowns: []Slowdown{{Proc: 0, Factor: math.NaN()}}},
		{Crashes: []Crash{{Proc: 0, At: -1}}},
		{Crashes: []Crash{{Proc: 0, At: math.NaN()}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d accepted: %+v", i, *p)
		}
	}
}
