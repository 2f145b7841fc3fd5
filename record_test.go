package phpf

import (
	"bytes"
	"encoding/json"
	"testing"

	"phpf/internal/decide"
	"phpf/internal/programs"
)

// TestDecisionsRoundTrip: for every cell of testdata/decisions.golden, the
// decision record's JSON decodes and re-encodes to the same bytes, and the
// decoded record renders MappingReport and ExplainPriv byte for byte — the
// reports carry nothing the record lacks.
func TestDecisionsRoundTrip(t *testing.T) {
	eachDecisionCell(t, func(cell string, c *Compiled) {
		enc := c.Decisions().JSON()
		var back Decisions
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		if again := back.JSON(); !bytes.Equal(again, enc) {
			t.Fatalf("%s: re-encoding differs:\n%s\nvs\n%s", cell, again, enc)
		}
		if got, want := back.MappingText(), c.MappingReport(); got != want {
			t.Errorf("%s: decoded record renders\n%s\nMappingReport is\n%s", cell, got, want)
		}
		if got, want := back.PrivText(), c.ExplainPriv(); got != want {
			t.Errorf("%s: decoded record renders\n%s\nExplainPriv is\n%s", cell, got, want)
		}
	})
}

// TestReducePlanClassification pins the static reduction classification
// (phpfc -dump reduce) at P=4: the sums of figure 5 and the histogram are
// privatized; DGEFA's pivot search is a conditional max coupled with its
// location, so both of its reductions stay collective, each for its reason.
func TestReducePlanClassification(t *testing.T) {
	figure5, _ := FigureSource("figure5")
	for _, tc := range []struct{ name, src, want string }{
		{"figure5", figure5, "s (sum): privatized\n"},
		{"histogram", programs.Histogram(96, 16, 2), "h (sum): privatized\n"},
		{"dgefa", programs.DGEFA(12), "t0 (max): collective — conditional update has no extractable contribution\n" +
			"l (maxloc): collective — maxloc couples the value with its location\n"},
	} {
		c, err := Compile(tc.src, 4, SelectedOptions())
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Decisions().ReduceText(); got != tc.want {
			t.Errorf("%s: reduction plan\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}

// entry finds a record's entry of the given kind and name.
func entry(t *testing.T, d *Decisions, kind, name string) decide.Entry {
	t.Helper()
	for _, e := range d.Entries {
		if e.Kind == kind && e.Name == name {
			return e
		}
	}
	t.Fatalf("no %s entry %s in\n%s", kind, name, d.JSON())
	return decide.Entry{}
}

// TestDecisionsWhy: the record keeps why each of the paper's figure-1 and
// figure-4 scalars is mapped as it is (selected, P=4), which MappingReport
// does not print: the consumer the traversal chose and whether a use forced
// replication.
func TestDecisionsWhy(t *testing.T) {
	compile := func(name string) *Compiled {
		src, _ := FigureSource(name)
		c, err := Compile(src, 4, SelectedOptions())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ref := func(r *decide.Ref) string {
		if r == nil {
			return "none"
		}
		return r.Text
	}
	d := compile("figure1").Decisions()
	for _, w := range []struct{ def, kind, target, role, consumer string }{
		{"x.2@s2", "aligned", "d((i + 1))", "consumer", "d((i + 1))"},
		{"y.2@s3", "aligned", "a(i)", "producer", "a((i + 1))"},
		{"z.2@s4", "private-noalign", "none", "", "a((i + 1))"},
	} {
		e := entry(t, d, decide.Scalar, w.def)
		if e.Decision != w.kind || ref(e.Target) != w.target || e.Role != w.role ||
			ref(e.SelectedConsumer) != w.consumer || e.ForcedReplicated {
			t.Errorf("figure1 %s: %s with %s (%s), selected consumer %s, forced %v; want %s with %s (%s), selected consumer %s",
				w.def, e.Decision, ref(e.Target), e.Role, ref(e.SelectedConsumer), e.ForcedReplicated,
				w.kind, w.target, w.role, w.consumer)
		}
	}

	c4 := compile("figure4")
	if e := entry(t, c4.Decisions(), decide.Scalar, "s.3@s0"); e.Decision != "replicated" || !e.ForcedReplicated {
		t.Errorf("figure4 s.3@s0: %s, forced replicated %v; want replicated, forced", e.Decision, e.ForcedReplicated)
	}
	// What forces it: s subscripts the distributed dimension of b(s,j,k).
	found := false
	for _, r := range c4.Result.Prog.Refs {
		found = found || r.Var.Name == "s" && r.EnclosingRef != nil && r.EnclosingRef.String() == "b(s,j,k)"
	}
	if !found {
		t.Error("figure4 has no use of s in the subscript of b(s,j,k)")
	}
}
