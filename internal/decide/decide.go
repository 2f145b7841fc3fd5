// Package decide holds a compile's mapping decisions as one value, keyed by
// stable names — statement labels (s3), SSA definitions (x.2@s2), loops by
// index and ID — so that it outlives the compile: it encodes as JSON, and it
// is the one place decision text is formatted. The mapping, privatization
// and reduction reports and the autopriv and reduceplan sections of
// -dump-after are renderings of it.
package decide

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"phpf/internal/dataflow"
	"phpf/internal/ir"
)

// Decisions is the record of one compile: the grid, the privatization mode
// and one entry per decision in a fixed order — scalar definitions in SSA
// order, privatized arrays in declaration order, control statements and
// inductions in program order, reductions in recognition order, classes in
// loop preorder — so one compile always encodes to the same bytes.
type Decisions struct {
	Grid          string  `json:"grid"`
	Privatization string  `json:"privatization"`
	Entries       []Entry `json:"entries"`
}

// The kinds of entry.
const (
	Scalar    = "scalar"    // the mapping of an SSA definition (§2.2, §2.3)
	Array     = "array"     // the privatization of an array wrt a loop (§3)
	Control   = "control"   // the §4 decision for an IF or IF-GOTO
	Induction = "induction" // a recognized induction variable
	Reduction = "reduction" // a recognized reduction, statically classified
	Class     = "class"     // autopriv's classification of a (variable, loop)
)

// Entry is one decision; the fields its kind does not use are empty. Name
// keys it: a scalar's definition, a control statement's label, else the
// variable. Decision is the choice from the kind's menu: a scalar's mapping
// kind, an array's full or partial, whether a control statement is
// privatized, a reduction privatized or collective, a class private,
// lastprivate or serialized.
type Entry struct {
	Kind     string `json:"kind"`
	Name     string `json:"name"`
	Decision string `json:"decision,omitempty"`
	Stmt     string `json:"stmt,omitempty"` // an induction's or a reduction's update
	Line     int    `json:"line,omitempty"` // a control statement's
	// Loop is a scalar's privatization loop, the loop an array or a class is
	// decided for, an induction's loop, a reduction's innermost carrier.
	Loop *Loop `json:"loop,omitempty"`
	// Target is the alignment target of a scalar or an array, Role what it is
	// to a scalar (consumer, producer, reduction-data), AlignLevel the
	// paper's AlignLevel of it.
	Target      *Ref   `json:"target,omitempty"`
	Role        string `json:"role,omitempty"`
	AlignLevel  int    `json:"align_level,omitempty"`
	LastPrivate bool   `json:"last_private,omitempty"`
	RedGridDims []int  `json:"red_grid_dims,omitempty"`
	// SelectedConsumer and ForcedReplicated say why a scalar is mapped as it
	// is: the consumer the traversal chose, also where the value ends up not
	// aligned with it, and that a use needs the value on every processor.
	SelectedConsumer *Ref   `json:"selected_consumer,omitempty"`
	ForcedReplicated bool   `json:"forced_replicated,omitempty"`
	Op               string `json:"op,omitempty"`
	Init             int64  `json:"init,omitempty"`
	Incr             int64  `json:"incr,omitempty"`
	Directive        bool   `json:"directive,omitempty"` // a NEW clause asserts the class
	Inserted         bool   `json:"inserted,omitempty"`  // autopriv inserted the class
	Reason           string `json:"reason,omitempty"`
	Blocking         *Ref   `json:"blocking,omitempty"` // the reference that serialized a class
}

// Ref names a reference by its source text and its statement's label.
type Ref struct {
	Text string `json:"ref"`
	Stmt string `json:"stmt"`
}

// Loop names a loop by its index variable and its preorder ID.
type Loop struct {
	Index string `json:"index"`
	ID    int    `json:"id"`
}

// Label is a statement's stable label.
func Label(st *ir.Stmt) string { return fmt.Sprintf("s%d", st.ID) }

// RefOf names a reference (nil for nil).
func RefOf(r *ir.Ref) *Ref {
	if r == nil {
		return nil
	}
	return &Ref{Text: r.String(), Stmt: Label(r.Stmt)}
}

// LoopOf names a loop (nil for nil).
func LoopOf(l *ir.Loop) *Loop {
	if l == nil {
		return nil
	}
	return &Loop{Index: l.Index.Name, ID: l.ID}
}

// Classes records the autopriv classification.
func Classes(s *dataflow.PrivSummary) []Entry {
	out := make([]Entry, len(s.Classes))
	for i := range s.Classes {
		c := &s.Classes[i]
		out[i] = Entry{Kind: Class, Name: c.Var.Name, Decision: c.Decision.String(), Loop: LoopOf(c.Loop),
			Directive: c.Directive, Inserted: c.Inserted, Reason: c.Reason(), Blocking: RefOf(c.Blocking)}
	}
	return out
}

// Reductions records the reduceplan's classification.
func Reductions(rp *dataflow.ReducePlan) []Entry {
	out := make([]Entry, len(rp.Decisions))
	for i, d := range rp.Decisions {
		out[i] = Entry{Kind: Reduction, Name: d.Red.Var.Name, Decision: "collective", Stmt: Label(d.Red.Stmt),
			Loop: LoopOf(d.Red.Loop), Op: d.Red.Op.String(), Reason: d.Reason}
		if d.Privatizable {
			out[i].Decision = "privatized"
		}
	}
	return out
}

// JSON encodes the record, indented, fields in declaration order.
func (d *Decisions) JSON() []byte {
	b, _ := json.MarshalIndent(d, "", "  ") // strings, numbers and bools: it cannot fail
	return append(b, '\n')
}

// MappingText renders the mapping decisions: the grid, the scalar
// definitions and the privatized arrays each in line order, then the control
// statements, inductions and reductions.
func (d *Decisions) MappingText() string {
	var scalars, arrays []string
	var rest strings.Builder
	for _, e := range d.Entries {
		switch e.Kind {
		case Scalar:
			s := "scalar " + e.Name + ": " + e.Decision
			if e.Target != nil {
				s += fmt.Sprintf(" with %s (%s)", e.Target.Text, e.Role)
			}
			if e.Loop != nil {
				s += " wrt " + e.Loop.Index + "-loop"
			}
			if e.LastPrivate {
				s += " lastprivate"
			}
			scalars = append(scalars, s+"\n")
		case Array:
			arrays = append(arrays, fmt.Sprintf("array %s privatized (%s) wrt %s-loop with target %s\n",
				e.Name, e.Decision, e.Loop.Index, e.Target.Text))
		case Control:
			fmt.Fprintf(&rest, "control %s (line %d): %s\n", e.Name, e.Line, e.Decision)
		case Induction:
			fmt.Fprintf(&rest, "induction %s in %s-loop: init=%d incr=%d\n", e.Name, e.Loop.Index, e.Init, e.Incr)
		case Reduction:
			fmt.Fprintf(&rest, "reduction %s (%s) carried by %s-loop\n", e.Name, e.Op, e.Loop.Index)
		}
	}
	slices.Sort(scalars)
	slices.Sort(arrays)
	return "grid " + d.Grid + "\n" + strings.Join(scalars, "") + strings.Join(arrays, "") + rest.String()
}

// PrivText renders the privatization mode, then ClassText.
func (d *Decisions) PrivText() string {
	s := "privatization mode: " + d.Privatization + "\n"
	if !slices.ContainsFunc(d.Entries, func(e Entry) bool { return e.Kind == Class }) {
		s += "no privatization candidates\n"
	}
	return s + d.ClassText()
}

// ClassText renders one line per class with its decision and reason, then,
// loop by loop, the annotations the autopriv pass inserted.
func (d *Decisions) ClassText() string {
	var b strings.Builder
	var classes []Entry
	for _, c := range d.Entries {
		if c.Kind != Class {
			continue
		}
		classes = append(classes, c)
		fmt.Fprintf(&b, "%s wrt %s-loop: %s", c.Name, c.Loop.Index, c.Decision)
		if c.Directive {
			b.WriteString(" [directive]")
		}
		if c.Inserted {
			b.WriteString(" [inserted]")
		}
		fmt.Fprintf(&b, " — %s\n", c.Reason)
	}
	// Classes are in loop preorder: one loop's are consecutive.
	for i := 0; i < len(classes); {
		l := *classes[i].Loop
		var news, lasts []string
		for ; i < len(classes) && *classes[i].Loop == l; i++ {
			switch c := &classes[i]; {
			case !c.Inserted:
			case c.Decision == dataflow.PrivLastPrivate.String():
				lasts = append(lasts, c.Name)
			default:
				news = append(news, c.Name)
			}
		}
		if len(news) > 0 {
			fmt.Fprintf(&b, "%s-loop inferred new(%s)\n", l.Index, strings.Join(news, ","))
		}
		if len(lasts) > 0 {
			fmt.Fprintf(&b, "%s-loop inferred lastprivate(%s)\n", l.Index, strings.Join(lasts, ","))
		}
	}
	return b.String()
}

// ReduceText renders one line per reduction: privatized, or collective and
// why — a reduction a run under -reduce privatize rejects with E005.
func (d *Decisions) ReduceText() string {
	var b strings.Builder
	for _, e := range d.Entries {
		if e.Kind == Reduction {
			fmt.Fprintf(&b, "%s (%s): %s", e.Name, e.Op, e.Decision)
			if e.Reason != "" {
				fmt.Fprintf(&b, " — %s", e.Reason)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
