package phpf

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden dump files")

// checkGolden holds got to the checked-in file at path byte for byte, or
// rewrites the file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -update .`): %v", err)
	}
	if got != string(want) {
		t.Errorf("output deviates from %s\n--- got ---\n%s--- want ---\n%s", path, got, string(want))
	}
}

// TestGoldenDumps locks down the -dump-after=ssa snapshot of every paper
// figure program: the pipeline's IR, CFG, SSA, constant and mapping state
// must be byte-identical to the checked-in golden files. Run with -update
// after an intentional change.
func TestGoldenDumps(t *testing.T) {
	for _, name := range FigureNames() {
		t.Run(name, func(t *testing.T) {
			src, ok := FigureSource(name)
			if !ok {
				t.Fatalf("unknown figure %s", name)
			}
			opts := SelectedOptions()
			opts.DumpAfter = "ssa"
			c, err := Compile(src, 16, opts)
			if err != nil {
				t.Fatalf("compile %s: %v", name, err)
			}
			got, ok := c.Profile().Dumps["ssa"]
			if !ok {
				t.Fatal("no ssa snapshot captured")
			}
			checkGolden(t, filepath.Join("testdata", "dumps", name+".ssa.golden"), got)
		})
	}
}

// TestGoldenAutoPrivDumps locks down the -dump-after=autopriv snapshot of
// every paper figure: the classification summary and the inferred loop
// annotations the pass inserted must be byte-identical to the checked-in
// golden files. Run with -update after an intentional change.
func TestGoldenAutoPrivDumps(t *testing.T) {
	for _, name := range FigureNames() {
		t.Run(name, func(t *testing.T) {
			src, ok := FigureSource(name)
			if !ok {
				t.Fatalf("unknown figure %s", name)
			}
			opts := SelectedOptions()
			opts.DumpAfter = "autopriv"
			c, err := Compile(src, 16, opts)
			if err != nil {
				t.Fatalf("compile %s: %v", name, err)
			}
			got, ok := c.Profile().Dumps["autopriv"]
			if !ok {
				t.Fatal("no autopriv snapshot captured")
			}
			checkGolden(t, filepath.Join("testdata", "dumps", name+".autopriv.golden"), got)
		})
	}
}

// TestGoldenDumpStability compiles each figure twice and requires identical
// snapshots, independent of the golden files (catches nondeterminism even
// when -update was just run).
func TestGoldenDumpStability(t *testing.T) {
	for _, name := range FigureNames() {
		src, _ := FigureSource(name)
		opts := SelectedOptions()
		opts.DumpAfter = "ssa"
		c1, err := Compile(src, 16, opts)
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		c2, _ := Compile(src, 16, opts)
		if c1.Profile().Dumps["ssa"] != c2.Profile().Dumps["ssa"] {
			t.Errorf("%s: ssa dump differs between two compilations", name)
		}
	}
}
