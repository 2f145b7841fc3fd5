package core

import (
	"testing"

	"phpf/internal/ast"
	"phpf/internal/pass"
)

// Pipeline is the compilation, in the order it runs: the ten named steps,
// ending in the analyze step (the mapping pass) which deposits its Result
// through out, and the slots step. When induction rewrote an increment to
// closed form, pass.Run re-executes cfg, ssa and constprop directly after it
// (visible in the profile as re-runs), so autopriv and everything after it
// read the rewritten program's SSA — privatization inference sees closed-form
// induction expressions. The autopriv step writes the loops' privatization
// facts under opts.Privatization before the mapping pass consumes them: this
// is the only place the mode is read. The slots step runs last — after every
// expression rewrite has settled — and freezes the dense variable numbering
// the interpreter's slot-indexed state relies on.
func Pipeline(opts Options, out **Result) []pass.Step {
	mode := opts.Privatization
	return []pass.Step{
		{Name: "ir", Run: pass.BuildIR},
		{Name: "cfg", Run: pass.BuildCFG},
		{Name: "ssa", Run: pass.BuildSSA},
		{Name: "constprop", Run: pass.ConstProp},
		{Name: "induction", Run: pass.Induction},
		{Name: "autopriv", Run: func(u *pass.Unit) error {
			return pass.AutoPriv(u, mode != PrivDirectives, mode == PrivInferStrict)
		}},
		{Name: "reduceplan", Run: pass.ReducePlan},
		{Name: "mapping", Run: pass.Mapping},
		{Name: "analyze", Run: func(u *pass.Unit) error {
			res := Analyze(u, opts)
			for _, d := range res.Diags {
				u.Diag(d)
			}
			*out = res
			return nil
		}},
		{Name: "slots", Run: pass.Slots},
	}
}

// PassNames lists the pipeline's passes in execution order — the names
// Options.DumpAfter and the compile profile use, read off the declaration
// above so no other list can fall behind it.
func PassNames() []string {
	var names []string
	for _, s := range Pipeline(Options{}, nil) {
		names = append(names, s.Name)
	}
	return names
}

// BuildAndAnalyze runs Pipeline on a parsed program for a given processor
// count.
//
// Directive resolution is lenient: a bad mapping directive does not fail the
// compilation — the directive is skipped (the affected arrays stay
// replicated, which is always correct) and the problem is recorded in
// Result.Diags with its source position. Errors are reserved for programs no
// mapping can make executable (parse/IR construction failures) and, when the
// verifier is enabled, internal invariant violations.
//
// The unit verifier runs between every pass when Options.Verify is set; it
// is always on under `go test`, so the full test suite exercises it.
func BuildAndAnalyze(src *ast.Program, nprocs int, opts Options) (*Result, error) {
	var res *Result
	u := &pass.Unit{Source: src, NProcs: nprocs}
	prof, err := pass.Run(u, Pipeline(opts, &res), opts.Verify || testing.Testing(), opts.DumpAfter)
	if err != nil {
		return nil, err
	}
	// Unit.Diags has every pass's diagnostics in emission order (mapping
	// problems precede the analyze pass's scalar-mapping diagnostics).
	res.Diags = u.Diags
	res.Profile = prof
	return res, nil
}
