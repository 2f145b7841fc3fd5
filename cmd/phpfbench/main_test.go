package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsConflicts: a flag another one would silently override, or a
// table that does not exist, exits 2 with a message naming it — before
// anything runs.
func TestRejectsConflicts(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-diff", "-faults"}, "-diff and -faults"},
		{[]string{"-reduce-sweep", "-faults"}, "-faults and -reduce-sweep"},
		{[]string{"-chaos", "-trace-summary", "-diff"}, "-chaos and -diff"},
		{[]string{"-table", "7"}, "unknown -table 7"},
		{[]string{"-table", "-1"}, "unknown -table -1"},
		{[]string{"-table", "2", "-diff"}, "-table selects the paper tables, -diff a sweep"},
		{[]string{"-table", "0", "-chaos"}, "-table selects the paper tables, -chaos a sweep"},
		{[]string{"-reduce", "bogus"}, "bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", c.args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: stderr %q does not name %q", c.args, stderr.String(), c.want)
		}
		if stdout.Len() > 0 {
			t.Errorf("%v: printed %q before rejecting", c.args, stdout.String())
		}
	}
}

// TestUnknownFlagAndHelp: flag errors exit 2, -h exits 0.
func TestUnknownFlagAndHelp(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-profile"}, &out, &out); code != 2 {
		t.Errorf("-profile: exit %d, want 2", code)
	}
	if code := run([]string{"-h"}, &out, &out); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
}
