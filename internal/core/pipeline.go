package core

import (
	"testing"

	"phpf/internal/ast"
	"phpf/internal/pass"
)

// Pipeline returns the declared analysis pipeline, ending in the analyze
// pass which deposits its Result through the returned pointer-pointer. The
// pass order is: ir, cfg, ssa, constprop, induction, autopriv, reduceplan,
// mapping, analyze, slots. Induction rewriting does not rebuild downstream
// structures inline; it invalidates FactCFG and the manager lazily re-runs
// cfg/ssa before autopriv and constprop before analyze (visible in the
// profile as re-runs). The autopriv pass runs over the rewritten SSA —
// privatization inference sees closed-form induction expressions — and
// writes the loops' privatization facts under opts.Privatization before the
// mapping pass consumes them: this is the only place the mode is read.
// The slots pass runs last — after every expression rewrite has settled —
// and freezes the dense variable numbering the interpreter's slot-indexed
// state relies on.
func Pipeline(opts Options, out **Result) []*pass.Pass {
	mode := opts.Privatization
	analyze := &pass.Pass{
		Name: "analyze",
		Requires: []pass.Fact{pass.FactIR, pass.FactSSA, pass.FactConsts,
			pass.FactMapping, pass.FactAutoPriv, pass.FactReducePlan},
		Run: func(u *pass.Unit) error {
			res := Analyze(u, opts)
			for _, d := range res.Diags {
				u.Diag(d)
			}
			*out = res
			return nil
		},
	}
	return []*pass.Pass{
		pass.IRBuild(),
		pass.CFGBuild(),
		pass.SSABuild(),
		pass.ConstProp(),
		pass.Induction(),
		pass.AutoPriv(mode != PrivDirectives, mode == PrivInferStrict),
		pass.ReducePlan(),
		pass.Mapping(),
		analyze,
		pass.Slots(),
	}
}

// PassNames lists the pipeline's passes in execution order — the names
// Options.DumpAfter and the compile profile use, read off the declaration
// above so no other list can fall behind it.
func PassNames() []string {
	var names []string
	for _, p := range Pipeline(Options{}, nil) {
		names = append(names, p.Name)
	}
	return names
}

// BuildAndAnalyze runs the full analysis pipeline on a parsed program for a
// given processor count: IR construction, CFG + SSA, constant propagation,
// induction-variable recognition with closed-form rewriting (followed by a
// lazily scheduled SSA rebuild), directive resolution, and the mapping pass.
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
	mgr, err := pass.NewManager(Pipeline(opts, &res)...)
	if err != nil {
		return nil, err
	}
	mgr.Verify = opts.Verify || testing.Testing()
	mgr.DumpAfter = opts.DumpAfter
	u := &pass.Unit{Source: src, NProcs: nprocs}
	runErr := mgr.Run(u)
	if runErr != nil {
		return nil, runErr
	}
	// Unit.Diags has every pass's diagnostics in emission order (mapping
	// problems precede the analyze pass's scalar-mapping diagnostics).
	res.Diags = u.Diags
	res.Profile = mgr.Profile()
	return res, nil
}
