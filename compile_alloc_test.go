package phpf

import (
	"testing"

	"phpf/internal/programs"
)

// raceEnabled is set under the race detector (race_test.go), which drops
// sync.Pool items at random: fmt's printers then allocate a varying number
// of times, and no allocation count repeats.
var raceEnabled bool

// TestCompileAllocs caps what one compile allocates, per program:
// TOMCATV(65,3), DGEFA(96) and the six figures, at P=16 with the selected
// options. The caps are the counts measured when the front end was made to
// build each program once — one token stream, unchanged subtrees shared,
// expressions compared by structure, reason text formatted when reported,
// dense SSA and CFG sets — plus 3 %, so a change that brings back per-node
// allocation fails here. Under go test the unit verifier runs between the
// passes (core.BuildAndAnalyze turns it on whenever testing.Testing()), so
// the counts include its allocations; a production compile makes fewer.
func TestCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not repeat under the race detector")
	}
	measured := map[string]float64{
		"tomcatv": 2794, "dgefa": 1213,
		"figure1": 803, "figure2": 385, "figure4": 364, "figure5": 299, "figure6": 391, "figure7": 385,
	}
	sources := map[string]string{"tomcatv": programs.TOMCATV(65, 3), "dgefa": programs.DGEFA(96)}
	for _, name := range FigureNames() {
		sources[name], _ = FigureSource(name)
	}
	if len(sources) != len(measured) {
		t.Fatalf("%d programs, %d measured", len(sources), len(measured))
	}
	for name, src := range sources {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Compile(src, 16, SelectedOptions()); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%-8s %5.0f allocations (measured %.0f)", name, allocs, measured[name])
		if allocs > measured[name]*1.03 {
			t.Errorf("compiling %s allocates %.0f times, over 103 %% of the %.0f measured", name, allocs, measured[name])
		}
	}
}
