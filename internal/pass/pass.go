// Package pass implements the instrumented compilation pipeline: a pass
// manager running declared passes over a shared compilation Unit, with
// explicit fact invalidation, per-pass wall-time and diagnostic metrics, an
// IR/SSA/mapping verifier that can run between passes, and stable textual
// snapshots of the unit after any pass (-dump-after).
//
// The pipeline is fact-based: every pass declares which facts it Requires,
// Provides, and may Invalidate. A pass that changes the program (induction
// rewriting) does not rebuild downstream structures inline; it calls
// Unit.Invalidate and the manager lazily re-runs the registered provider
// passes before the next pass that requires them. Re-runs are recorded in the
// profile, so tests can assert that a rebuild happened exactly once.
package pass

import (
	"fmt"
	"time"

	"phpf/internal/ast"
	"phpf/internal/dataflow"
	"phpf/internal/diag"
	"phpf/internal/dist"
	"phpf/internal/ir"
	"phpf/internal/ssa"
)

// Fact identifies one piece of derived compilation state on the Unit.
type Fact int

const (
	// FactIR: Unit.Prog, the lowered program.
	FactIR Fact = iota
	// FactCFG: Unit.CFG, the control flow graph over Prog.
	FactCFG
	// FactSSA: Unit.SSA, scalar SSA form over the CFG.
	FactSSA
	// FactConsts: Unit.Consts, constant propagation over the SSA values.
	FactConsts
	// FactMapping: Unit.Mapping, resolved distribution directives.
	FactMapping
	// FactAutoPriv: Unit.AutoPriv, the privatization classification (and
	// the inferred-NEW/lastprivate loop annotations the autopriv pass
	// inserts from it).
	FactAutoPriv
	// FactReducePlan: Unit.ReducePlan, the collective-vs-privatized
	// classification of every recognized reduction.
	FactReducePlan

	numFacts
)

func (f Fact) String() string {
	switch f {
	case FactIR:
		return "ir"
	case FactCFG:
		return "cfg"
	case FactSSA:
		return "ssa"
	case FactConsts:
		return "consts"
	case FactMapping:
		return "mapping"
	case FactAutoPriv:
		return "autopriv"
	case FactReducePlan:
		return "reduceplan"
	}
	return fmt.Sprintf("fact(%d)", int(f))
}

// derived[f] lists the facts computed directly from f; invalidating f
// transitively invalidates them.
var derived = map[Fact][]Fact{
	FactIR:     {FactCFG, FactMapping},
	FactCFG:    {FactSSA},
	FactSSA:    {FactConsts, FactAutoPriv, FactReducePlan},
	FactConsts: {FactAutoPriv},
}

// Unit is the shared compilation state threaded through the pipeline. Passes
// read the facts they declared in Requires and write the ones they declared
// in Provides; everything else is off limits.
type Unit struct {
	// Source is the parsed program the pipeline compiles.
	Source *ast.Program
	// NProcs is the target processor count.
	NProcs int

	Prog       *ir.Program
	CFG        *ir.CFG
	SSA        *ssa.SSA
	Consts     *dataflow.ConstProp
	Mapping    *dist.Mapping
	Inductions []*dataflow.Induction
	AutoPriv   *dataflow.PrivSummary
	ReducePlan *dataflow.ReducePlan

	// Diags accumulates the non-fatal diagnostics every pass emitted, in
	// emission order.
	Diags diag.List

	valid       [numFacts]bool
	invalidated []Fact

	// reds memoizes Reductions for the SSA it was computed from.
	reds       []*dataflow.Reduction
	redsOf     *ssa.SSA
	recognized int // recognitions so far
}

// Reductions returns the program's recognized reductions. Recognition runs
// once per SSA build — the autopriv classification, the reduceplan pass and
// the analyze pass all read the same *Reduction values — and again only when
// the SSA has been rebuilt since.
func (u *Unit) Reductions() []*dataflow.Reduction {
	if u.redsOf != u.SSA {
		u.reds, u.redsOf = dataflow.FindReductions(u.Prog, u.SSA), u.SSA
		u.recognized++
	}
	return u.reds
}

// Valid reports whether fact f is currently established.
func (u *Unit) Valid(f Fact) bool { return u.valid[f] }

// Invalidate marks a fact (and, transitively, everything derived from it) as
// stale. A pass may only invalidate facts it declared in Invalidates; the
// manager enforces this after Run returns.
func (u *Unit) Invalidate(f Fact) {
	if !u.valid[f] {
		return
	}
	u.valid[f] = false
	u.invalidated = append(u.invalidated, f)
	for _, d := range derived[f] {
		u.Invalidate(d)
	}
}

// Diag records a non-fatal diagnostic.
func (u *Unit) Diag(d diag.Diagnostic) { u.Diags = append(u.Diags, d) }

// Pass is one step of the pipeline: a function over the Unit with its
// declared metadata.
type Pass struct {
	// Name is the stable pass name used by -trace, -dump-after, and the
	// profile.
	Name string
	// Requires lists the facts that must be valid before Run.
	Requires []Fact
	// Provides lists the facts Run establishes.
	Provides []Fact
	// Invalidates lists the facts Run MAY invalidate (via Unit.Invalidate).
	// Invalidating an undeclared fact is a pipeline bug and fails the run.
	Invalidates []Fact
	// Run does the work. A returned error aborts the pipeline.
	Run func(u *Unit) error
}

// PassStat records one execution of one pass.
type PassStat struct {
	Name string
	Wall time.Duration
	// Diags is the number of diagnostics this execution emitted.
	Diags int
	// Rerun is true when the manager re-ran the pass to restore a fact an
	// earlier pass invalidated (rather than by pipeline order).
	Rerun bool
}

// CompileProfile is the instrumentation record of one pipeline run.
type CompileProfile struct {
	// Stats lists every pass execution in the order it happened, including
	// lazy re-runs.
	Stats []PassStat
	// Dumps maps a pass name to the textual unit snapshot taken after it
	// (only the passes requested via Manager.DumpAfter).
	Dumps map[string]string
}

// Runs returns how many times the named pass executed.
func (p *CompileProfile) Runs(name string) int {
	n := 0
	for _, s := range p.Stats {
		if s.Name == name {
			n++
		}
	}
	return n
}

// Total returns the summed wall time of all pass executions.
func (p *CompileProfile) Total() time.Duration {
	var t time.Duration
	for _, s := range p.Stats {
		t += s.Wall
	}
	return t
}

// String renders the profile as the fixed-width table phpfc -trace prints.
func (p *CompileProfile) String() string {
	out := fmt.Sprintf("%-12s %12s %6s\n", "pass", "wall", "diags")
	for _, s := range p.Stats {
		name := s.Name
		if s.Rerun {
			name += "*"
		}
		out += fmt.Sprintf("%-12s %12s %6d\n", name, s.Wall.Round(time.Microsecond), s.Diags)
	}
	out += fmt.Sprintf("%-12s %12s %6d\n", "total", p.Total().Round(time.Microsecond), p.DiagCount())
	return out
}

// DiagCount returns the total diagnostics emitted across all executions.
func (p *CompileProfile) DiagCount() int {
	n := 0
	for _, s := range p.Stats {
		n += s.Diags
	}
	return n
}
