// Package comm performs communication analysis over the mapping decisions:
// for every right-hand-side / predicate reference it determines whether the
// data may need to move under owner-computes, classifies the communication
// (shift / broadcast / point-to-point / general), and computes its placement
// — the outermost loop out of which the messages can be vectorized (the
// paper's "message vectorization", the decisive lever between producer and
// consumer alignment in §2.1).
package comm

import (
	"fmt"

	"phpf/internal/diag"
	"sort"
	"strings"

	"phpf/internal/core"
	"phpf/internal/dist"
	"phpf/internal/ir"
)

// Requirement is one reference's communication need.
type Requirement struct {
	// ID numbers the requirement within its plan (stable across runs of the
	// same program); the concurrent executor tags every message with it so
	// receivers can verify the traffic matches the plan.
	ID   int
	Use  *ir.Ref
	Stmt *ir.Stmt

	Class  dist.CommClass
	SrcPat dist.OwnerPattern
	DstPat dist.OwnerPattern

	// Placement is the loop immediately before whose iterations the
	// aggregated communication is performed; nil means outside all loops.
	// When Hoisted is empty the communication is per statement instance
	// (inner-loop communication).
	Placement *ir.Loop
	// Hoisted lists the loops whose iterations are aggregated into one
	// communication (innermost first). Empty = not vectorizable.
	Hoisted []*ir.Loop
}

// Vectorized reports whether the communication is hoisted out of at least
// one loop.
func (r *Requirement) Vectorized() bool { return len(r.Hoisted) > 0 }

func (r *Requirement) String() string {
	where := "per-instance"
	if r.Vectorized() {
		where = fmt.Sprintf("hoisted out of %d loop(s)", len(r.Hoisted))
		if r.Placement != nil {
			where += fmt.Sprintf(" to %s-loop", r.Placement.Index.Name)
		} else {
			where += " to top level"
		}
	}
	return fmt.Sprintf("s%d %s: %s %s", r.Stmt.ID, r.Use, r.Class, where)
}

// Plan is the communication plan for a program.
type Plan struct {
	Res  *core.Result
	Reqs []*Requirement
	// ByStmt lists per-instance requirements per statement.
	ByStmt map[*ir.Stmt][]*Requirement
	// AtLoop lists vectorized requirements performed at each entry of the
	// given loop (the outermost hoisted loop), covering all its iterations
	// in one aggregated communication.
	AtLoop map[*ir.Loop][]*Requirement
	// Diags are informational diagnostics about communication placement
	// (inner-loop communications the vectorizer could not hoist, disabled
	// vectorization).
	Diags []diag.Diagnostic
}

// Analyze builds the communication plan.
func Analyze(res *core.Result) *Plan {
	p := &Plan{
		Res:    res,
		ByStmt: map[*ir.Stmt][]*Requirement{},
		AtLoop: map[*ir.Loop][]*Requirement{},
	}
	for _, st := range res.Prog.Stmts {
		switch st.Kind {
		case ir.SAssign, ir.SIf, ir.SIfGoto, ir.SLoopBounds:
		default:
			continue
		}
		dst := res.ExecPattern(st)
		for _, u := range st.Uses {
			if u.IsDef {
				continue
			}
			src := res.RefPattern(u)
			req := analyzeUse(res, st, u, src, dst)
			if req == nil {
				continue
			}
			req.ID = len(p.Reqs)
			p.Reqs = append(p.Reqs, req)
			if req.Vectorized() {
				outer := req.Hoisted[len(req.Hoisted)-1]
				p.AtLoop[outer] = append(p.AtLoop[outer], req)
			} else {
				p.ByStmt[st] = append(p.ByStmt[st], req)
				if st.Loop != nil && !res.Opts.DisableVectorization {
					p.Diags = append(p.Diags, diag.Infof("comm", diag.CodeInnerComm,
						u.Var.Name, st.Pos(),
						"communication for %s stays inside the %s-loop (%s)",
						u, st.Loop.Index.Name, req.Class))
				}
			}
		}
	}
	if res.Opts.DisableVectorization && len(p.Reqs) > 0 {
		p.Diags = append(p.Diags, diag.Infof("comm", diag.CodeNoVectorize, "",
			diag.Pos{}, "message vectorization disabled: %d communication(s) kept at their statements",
			len(p.Reqs)))
	}
	return p
}

// analyzeUse builds the requirement for one use (nil when no communication
// can ever be needed).
func analyzeUse(res *core.Result, st *ir.Stmt, u *ir.Ref, src, dst dist.OwnerPattern) *Requirement {
	// Values of privatized-without-alignment and replicated scalars are
	// available wherever they are needed.
	if src.IsReplicated() {
		return nil
	}
	class := dist.Classify(src, dst)
	if class == dist.CommNone {
		return nil
	}
	req := &Requirement{Use: u, Stmt: st, Class: class, SrcPat: src, DstPat: dst}

	if res.Opts.DisableVectorization {
		return req // per-instance (ablation)
	}

	// Placement: hoist out of enclosing loops while legal.
	cur := st.Loop
	for cur != nil && res.Hoistable(u, src, dst, cur) {
		req.Hoisted = append(req.Hoisted, cur)
		cur = cur.Parent
	}
	req.Placement = cur
	if len(req.Hoisted) == 0 {
		req.Placement = nil
	}
	return req
}

// Summary renders the plan compactly for diagnostics and tests.
func (p *Plan) Summary() string {
	var lines []string
	for _, r := range p.Reqs {
		lines = append(lines, r.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// CountByClass tallies requirements per communication class.
func (p *Plan) CountByClass() map[dist.CommClass]int {
	out := map[dist.CommClass]int{}
	for _, r := range p.Reqs {
		out[r.Class]++
	}
	return out
}
