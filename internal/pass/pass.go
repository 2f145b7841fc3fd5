// Package pass implements the instrumented compilation pipeline: a list of
// named steps run in order over a shared compilation Unit (Run), with per-step
// wall-time and diagnostic metrics, an IR/SSA/mapping verifier that can run
// between steps, and stable textual snapshots of the unit after any step
// (-dump-after).
//
// The order is data: core.Pipeline lists the ten steps as they run. One step
// can make earlier work stale — the induction rewrite changes expressions the
// CFG, the SSA and the constants were built over — and says so by dropping
// them; Run rebuilds them right there and records the re-runs in the profile.
// A structure is valid exactly when it is non-nil.
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

// Unit is the shared compilation state threaded through the pipeline. A
// structure a step has not built yet, or that a rewrite dropped, is nil.
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

// Diag records a non-fatal diagnostic.
func (u *Unit) Diag(d diag.Diagnostic) { u.Diags = append(u.Diags, d) }

// Step is one named step of the pipeline. The name is the stable one -trace,
// -dump-after and the profile use; a returned error aborts the compilation.
type Step struct {
	Name string
	Run  func(u *Unit) error
}

// PassStat records one execution of one pass.
type PassStat struct {
	Name string
	Wall time.Duration
	// Diags is the number of diagnostics this execution emitted.
	Diags int
	// Rerun is true when the pass ran again to rebuild what an earlier
	// pass's rewrite dropped (rather than by pipeline order).
	Rerun bool
}

// CompileProfile is the instrumentation record of one pipeline run.
type CompileProfile struct {
	// Stats lists every pass execution in the order it happened, including
	// re-runs.
	Stats []PassStat
	// Dumps maps a pass name to the textual unit snapshot taken after its
	// last execution (only the pass Run was asked to dump after).
	Dumps map[string]string
}

// Time runs one named step and records the execution: its wall time, the
// number of diagnostics it says it emitted, and whether it was a re-run.
func (p *CompileProfile) Time(name string, rerun bool, run func() (diags int)) {
	start := time.Now()
	diags := run()
	p.Stats = append(p.Stats, PassStat{Name: name, Wall: time.Since(start), Diags: diags, Rerun: rerun})
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
