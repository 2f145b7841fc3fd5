package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// phpfc runs the command on args and returns its exit status and output.
func phpfc(args ...string) (int, string, string) {
	var out, errs strings.Builder
	code := run(args, &out, &errs)
	return code, out.String(), errs.String()
}

// TestDumpValues: every -dump value the table lists renders something for
// figure 5 (which has a reduction, a privatized scalar and a loop), and
// "decisions" is JSON; an unknown value exits 2 naming every valid one.
func TestDumpValues(t *testing.T) {
	for _, name := range dumpNames() {
		code, out, errs := phpfc("-p", "4", "-dump", name, "-figure", "figure5")
		if code != 0 || strings.TrimSpace(out) == "" {
			t.Errorf("-dump %s: exit %d, output %q, stderr %q", name, code, out, errs)
		}
		if name == "decisions" && !json.Valid([]byte(out)) {
			t.Errorf("-dump decisions is not JSON:\n%s", out)
		}
	}
	for _, bad := range []string{"mapings", "mapping, comm"} {
		code, out, errs := phpfc("-dump", bad, "-figure", "figure5")
		if valid := strings.Join(dumpNames(), ", "); code != 2 || out != "" || !strings.Contains(errs, valid) {
			t.Errorf("-dump %q: exit %d, output %q, stderr %q; want exit 2 listing %s", bad, code, out, errs, valid)
		}
	}
}

// TestFlagCount: phpfc has eight flags; the privatization and reduction
// reports are -dump values, not flags of their own.
func TestFlagCount(t *testing.T) {
	code, _, errs := phpfc("-h")
	if n := strings.Count(errs, "\n  -"); code != 0 || n != 8 {
		t.Errorf("phpfc -h: exit %d, %d flags, want 8:\n%s", code, n, errs)
	}
	for _, gone := range []string{"-explain-priv", "-reduce"} {
		if code, _, _ := phpfc(gone, "-figure", "figure5"); code != 2 {
			t.Errorf("phpfc %s: exit %d, want 2 (unknown flag)", gone, code)
		}
	}
}
