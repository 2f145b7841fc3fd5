// Package spmd lowers the mapping decisions and the communication plan into
// an explicit SPMD program: every statement carries an execution-set
// specification (the owner-computes guard), vectorized communication
// operations are attached to the loop they were hoisted to, per-instance
// communications to their statement, and reduction combines to the loop
// after which they run. The form is directly interpretable (package sim)
// and printable (cmd/phpfc).
package spmd

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"phpf/internal/ast"
	"phpf/internal/comm"
	"phpf/internal/core"
	"phpf/internal/dataflow"
	"phpf/internal/diag"
	"phpf/internal/dist"
	"phpf/internal/ir"
)

// ExecKind describes how a statement's execution set is determined. The
// decision is core's (core.Result.ExecOf), which the communication plan was
// built against; the names live on here for the interpreter and the tools.
type ExecKind = core.ExecKind

const (
	ExecAll     = core.ExecAll
	ExecOwner   = core.ExecOwner
	ExecPattern = core.ExecPattern
	ExecUnion   = core.ExecUnion
)

// StmtPlan is the SPMD execution plan of one statement.
type StmtPlan struct {
	Stmt *ir.Stmt
	// Exec is the guard: the statement's execution-set decision (Kind,
	// OwnerRef, Scalar), the same value the plan's destinations derive from.
	core.Exec
	// PerInstance lists communications performed at every instance.
	PerInstance []*comm.Requirement
	// Flops is the statement's per-instance computation cost in floating
	// point operations.
	Flops int
	// Combine links a reduction update statement to its loop-exit combine
	// (nil for every other statement). When the runtime reduction mode
	// privatizes the combine, the statement's instances accumulate into
	// private partials instead of storing through the accumulator.
	Combine *Combine
}

// Combine is one reduction whose merge runs at a loop's exit: either the
// §2.3 global collective (today's behavior, the differential reference) or —
// when the reduceplan cleared it and the runtime knob asks for it — a
// deterministic tree merge of per-processor private partials.
type Combine struct {
	// Mapping is the §2.3 reduction-scalar mapping. Nil for elementwise
	// array reductions, which have no scalar mapping (their collective
	// reference is plain per-instance owner-computes execution).
	Mapping *core.ScalarMapping
	// Red is the recognized reduction driving the combine.
	Red *dataflow.Reduction
	// Privatizable: the reduceplan cleared this reduction for privatized
	// execution. Whether the runtime uses it is decided per run
	// (core.ReduceMode), so one compiled program serves both strategies.
	Privatizable bool
	// Reason says why not, when !Privatizable.
	Reason string
	// AccIndex is the dense index of this combine's private partial table
	// in eval.State: assigned over privatizable combines in deterministic
	// (loop ID, statement ID) order; -1 for collective-only combines.
	AccIndex int
}

// Var returns the reduction target variable.
func (c *Combine) Var() *ir.Var { return c.Red.Var }

// LoopPlan carries the operations attached to a loop.
type LoopPlan struct {
	Loop *ir.Loop
	// Hoisted communications performed once per instance of this loop
	// (before the iterations).
	Hoisted []*comm.Requirement
	// Combines lists reductions whose merge runs after this loop completes.
	Combines []*Combine
	// CopyOuts lists lastprivate scalar mappings whose final-iteration
	// value is broadcast from its owner after this loop completes (and
	// after the Combines).
	CopyOuts []*core.ScalarMapping
}

// Program is the complete SPMD program.
type Program struct {
	Res  *core.Result
	Plan *comm.Plan
	// Stmts and Loops hold every statement's and loop's plan, indexed
	// densely by Stmt.ID and Loop.ID (PlanOf, LoopPlanOf).
	Stmts []*StmtPlan
	Loops []*LoopPlan
	// NumAcc is the number of privatizable combines — the number of private
	// partial tables a state configured for privatized reduction allocates.
	NumAcc int
	// Diags are the diagnostics communication analysis emitted (placement
	// notes), in emission order.
	Diags []diag.Diagnostic

	// lowered caches the executable form the interpreter derives from the
	// plan (see Lowered); built at most once, on first execution.
	lowerOnce sync.Once
	lowered   any
	// proc is built at most once, on first use (procs).
	procOnce sync.Once
	proc     *procInfo
}

// Lowered returns the program's executable form, calling build to derive it
// on first use. The form belongs to the interpretation core (internal/eval,
// which this package cannot import); it is cached here so every run of one
// compiled program — including concurrent ones — shares a single immutable
// lowering, and so compiling alone never pays for it.
func (p *Program) Lowered(build func() any) any {
	p.lowerOnce.Do(func() { p.lowered = build() })
	return p.lowered
}

// procInfo is what processors that each interpret for themselves add to the
// plan: who computes what where they must agree, which loops shrink, and which
// IFs and loops a processor outside a predicate's set leaves aside.
type procInfo struct {
	need, moved map[*ir.Var]bool
	everywhere  []bool        // by Stmt.ID
	shrink      []*ShrinkInfo // by Loop.ID
	ifs         []Skip        // by Stmt.ID
	allOrNone   []Skip        // by Loop.ID
}

// procs settles the procInfo on first use: a compile never pays for it.
func (p *Program) procs() *procInfo {
	p.procOnce.Do(func() {
		prog := p.Res.Prog
		pr := &procInfo{need: map[*ir.Var]bool{}, moved: map[*ir.Var]bool{}, shrink: make([]*ShrinkInfo, len(prog.Loops)),
			ifs: make([]Skip, len(prog.Stmts)), allOrNone: make([]Skip, len(prog.Loops))}
		p.everywhere(pr)
		for _, st := range prog.Stmts {
			if st.Kind == ir.SIf {
				pr.ifs[st.ID] = p.skipIf(st.IfNode, pr)
			}
		}
		for _, l := range prog.Loops {
			pr.shrink[l.ID] = p.shrinkLoop(l, pr)
			pr.allOrNone[l.ID] = p.allOrNone(l, pr)
		}
		p.proc = pr
	})
	return p.proc
}

// Everywhere reports whether every processor computes the assignment st
// where each interprets for itself: it writes a value some processor's set
// resolution, subscript or loop bound reads (Needed).
func (p *Program) Everywhere(st *ir.Stmt) bool { return p.procs().everywhere[st.ID] }

// Needed reports whether every processor computes the values of v.
func (p *Program) Needed(v *ir.Var) bool { return p.procs().need[v] }

// everywhere settles who computes what where processors must agree. Every
// processor resolves every set and loop bound (out of the iterations it
// skips): a variable read in a subscript along a distributed dimension (every
// owner position is one) or in a loop bound is computed by every processor,
// and so, in turn, is everything its assignments read.
func (p *Program) everywhere(pr *procInfo) {
	prog, res := p.Res.Prog, p.Res
	read := func(e ast.Expr) {
		ast.Walk(e, func(x ast.Expr) {
			if r, ok := x.(*ast.Ref); ok {
				if v := prog.LookupVar(r.Name); v != nil && !v.IsLoopIndex {
					pr.need[v] = true
				}
			}
		})
	}
	for _, st := range prog.Stmts {
		if st.Kind == ir.SRedistribute {
			pr.moved[st.Redist.Array] = true
		}
	}
	for _, r := range prog.Refs {
		if !r.Var.IsArray() {
			continue
		}
		am, ap := res.Mapping.Arrays[r.Var], res.Arrays[r.Var]
		for k, sub := range r.Ast.Subs {
			if pr.moved[r.Var] || (am != nil && k < len(am.Axes) && am.Axes[k].Distributed) ||
				(ap != nil && k < len(ap.Axes) && ap.Axes[k].Distributed) {
				read(sub)
			}
		}
	}
	for _, l := range prog.Loops {
		read(l.Lo.Expr)
		read(l.Hi.Expr)
		read(l.Step)
	}
	pr.everywhere = make([]bool, len(prog.Stmts))
	for grew := true; grew; {
		grew = false
		for _, st := range prog.Stmts {
			if st.Kind != ir.SAssign || pr.everywhere[st.ID] || !pr.need[st.Lhs.Var] {
				continue
			}
			pr.everywhere[st.ID], grew = true, true
			read(st.Rhs)
			for _, sub := range st.Lhs.Ast.Subs {
				read(sub)
			}
		}
	}
}

// Grid returns the processor grid the program is mapped onto.
func (p *Program) Grid() *dist.Grid { return p.Res.Mapping.Grid }

// NProcs returns the number of simulated processors the plan targets — the
// degree of parallelism a faithful executor must provide.
func (p *Program) NProcs() int { return p.Res.Mapping.Grid.Size() }

// StmtLabels returns a human-readable label per statement ID ("s3 line 7
// a(i) = ..."), used by the trace recorder to attribute runtime events back
// to source statements.
func (p *Program) StmtLabels() map[int]string {
	out := make(map[int]string, len(p.Res.Prog.Stmts))
	for _, st := range p.Res.Prog.Stmts {
		label := fmt.Sprintf("s%d", st.ID)
		if st.Line > 0 {
			label += fmt.Sprintf(" line %d", st.Line)
		}
		out[st.ID] = label + " " + describeStmt(st)
	}
	return out
}

// PlanOf returns the plan of a statement.
func (p *Program) PlanOf(st *ir.Stmt) *StmtPlan { return p.Stmts[st.ID] }

// LoopPlanOf returns the plan of a loop.
func (p *Program) LoopPlanOf(l *ir.Loop) *LoopPlan { return p.Loops[l.ID] }

// Generate builds the SPMD program for a mapping result, the compile's last
// step: it drops the result's compile-time owner patterns (DropPatterns).
func Generate(res *core.Result) *Program {
	plan := comm.Analyze(res)
	p := &Program{
		Res:   res,
		Plan:  plan,
		Stmts: make([]*StmtPlan, len(res.Prog.Stmts)),
		Loops: make([]*LoopPlan, len(res.Prog.Loops)),
	}
	for _, st := range res.Prog.Stmts {
		p.Stmts[st.ID] = &StmtPlan{Stmt: st, Exec: res.ExecOf(st), PerInstance: plan.ByStmt[st], Flops: stmtFlops(st)}
	}
	for _, l := range res.Prog.Loops {
		p.Loops[l.ID] = &LoopPlan{Loop: l, Hoisted: plan.AtLoop[l]}
	}
	// Attach scalar reduction combines to their outermost carried loop. The
	// mapping's reduction is the recognition the reduceplan classified.
	rp := res.ReducePlan
	for _, m := range res.Scalars {
		if m.Kind != core.ScalarReduction || len(m.RedGridDims) == 0 || m.Red == nil {
			continue
		}
		if m.Red.Stmt != m.Def.Stmt {
			continue // only the update def triggers the combine
		}
		d := rp.Of(m.Red.Stmt)
		lp := p.LoopPlanOf(m.Red.Loops[len(m.Red.Loops)-1])
		lp.Combines = append(lp.Combines, &Combine{Mapping: m, Red: m.Red,
			Privatizable: d.Privatizable, Reason: d.Reason, AccIndex: -1})
	}
	// Attach privatizable elementwise (array) reduction combines. Their
	// collective reference is plain owner-computes execution — no scalar
	// mapping, no collective combine — so only the privatized path attaches
	// an operation here, and only when the runtime knob enables it.
	for _, d := range rp.Decisions {
		if d.Red.IsArray() && d.Privatizable {
			lp := p.LoopPlanOf(d.Red.Loops[len(d.Red.Loops)-1])
			lp.Combines = append(lp.Combines, &Combine{Red: d.Red, Privatizable: true, AccIndex: -1})
		}
	}
	// Attach lastprivate copy-outs to their privatization loop.
	for _, m := range res.Scalars {
		if m.LastPrivate && m.PrivLoop != nil && m.Kind == core.ScalarAligned {
			lp := p.LoopPlanOf(m.PrivLoop)
			lp.CopyOuts = append(lp.CopyOuts, m)
		}
	}
	for _, lp := range p.Loops {
		sort.Slice(lp.Combines, func(i, j int) bool {
			return lp.Combines[i].Red.Stmt.ID < lp.Combines[j].Red.Stmt.ID
		})
		sort.Slice(lp.CopyOuts, func(i, j int) bool {
			return lp.CopyOuts[i].Def.ID < lp.CopyOuts[j].Def.ID
		})
	}
	// Number the privatizable combines densely in (loop ID, statement ID)
	// order — the partial-table index every backend and every processor
	// derives identically — and link each combine back to its update
	// statement's plan so the interpreter can route instances into partials.
	for _, lp := range p.Loops {
		for _, c := range lp.Combines {
			if c.Privatizable {
				c.AccIndex = p.NumAcc
				p.NumAcc++
			}
			p.PlanOf(c.Red.Stmt).Combine = c
		}
	}
	p.Diags = plan.Diags
	res.DropPatterns()
	return p
}

// stmtFlops estimates the floating-point work of one statement instance.
func stmtFlops(st *ir.Stmt) int {
	n := 0
	if st.Rhs != nil {
		n += exprFlops(st.Rhs)
	}
	if st.Cond != nil {
		n += exprFlops(st.Cond)
	}
	if st.Kind == ir.SAssign {
		n++ // the store / addressing share
	}
	return n
}

// exprFlops counts operations in an expression: one per operator, an
// intrinsic's own weight (ast.Intrinsics) per call.
func exprFlops(e ast.Expr) int {
	n := 0
	ast.Walk(e, func(x ast.Expr) {
		switch c := x.(type) {
		case *ast.BinOp, *ast.UnaryMinus, *ast.Not:
			n++
		case *ast.Call:
			n += ast.Intrinsics[c.Name].Flops
		}
	})
	return n
}

// Dump renders the SPMD program as text, one line per statement with its
// guard and communications — the inspectable "generated code".
func (p *Program) Dump() string { return p.dump(false) }

// DumpSkips is Dump with the IFs and loops a processor outside a predicate's
// set may leave aside marked (phpfc -dump spmd); Dump is the compile half's.
func (p *Program) DumpSkips() string { return p.dump(true) }

func (p *Program) dump(skips bool) string {
	var b strings.Builder
	var walk func(nodes []ir.Node, depth int)
	ind := func(d int) string { return strings.Repeat("  ", d) }
	walk = func(nodes []ir.Node, depth int) {
		for _, n := range nodes {
			switch x := n.(type) {
			case *ir.Loop:
				lp := p.LoopPlanOf(x)
				for _, r := range lp.Hoisted {
					fmt.Fprintf(&b, "%s[comm before %s-loop] %s\n", ind(depth), x.Index.Name, r)
				}
				if si := p.ShrinkableLoops()[x.ID]; si != nil {
					fmt.Fprintf(&b, "%s[shrunk bounds: %s]\n", ind(depth), si)
				}
				if v := p.AllOrNoneLoops()[x.ID]; skips && v.OK {
					fmt.Fprintf(&b, "%s[all or none: %s]\n", ind(depth), v.Why)
				}
				fmt.Fprintf(&b, "%sdo %s\n", ind(depth), x.Index.Name)
				walk(x.Body, depth+1)
				fmt.Fprintf(&b, "%send do\n", ind(depth))
				for _, c := range lp.Combines {
					if c.Mapping != nil {
						fmt.Fprintf(&b, "%s[combine %s over grid dims %v%s]\n",
							ind(depth), c.Var().Name, c.Mapping.RedGridDims, combineNote(c))
					} else {
						fmt.Fprintf(&b, "%s[combine array %s%s]\n", ind(depth), c.Var().Name, combineNote(c))
					}
				}
				for _, m := range lp.CopyOuts {
					fmt.Fprintf(&b, "%s[copy-out %s from owner(%s)]\n", ind(depth), m.Def.Var.Name, m.Target)
				}
			case *ir.If:
				if v := p.SkippableIfs()[x.Cond.ID]; skips && v.OK {
					fmt.Fprintf(&b, "%s[skipped outside its set: %s]\n", ind(depth), v.Why)
				}
				p.dumpStmt(&b, x.Cond, depth)
				walk(x.Then, depth+1)
				if len(x.Else) > 0 {
					fmt.Fprintf(&b, "%selse\n", ind(depth))
					walk(x.Else, depth+1)
				}
				fmt.Fprintf(&b, "%send if\n", ind(depth))
			case *ir.Stmt:
				p.dumpStmt(&b, x, depth)
			}
		}
	}
	walk(p.Res.Prog.Body, 0)
	return b.String()
}

// combineNote renders a combine's reduceplan classification for Dump.
func combineNote(c *Combine) string {
	if c.Privatizable {
		return "; privatizable"
	}
	return "; collective-only: " + c.Reason
}

func (p *Program) dumpStmt(b *strings.Builder, st *ir.Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	sp := p.PlanOf(st)
	guard := sp.Kind.String()
	if sp.OwnerRef != nil {
		guard = fmt.Sprintf("owner(%s)", sp.OwnerRef)
	}
	for _, r := range sp.PerInstance {
		fmt.Fprintf(b, "%s[comm] %s\n", ind, r)
	}
	fmt.Fprintf(b, "%s[%s] s%d %s\n", ind, guard, st.ID, describeStmt(st))
}

func describeStmt(st *ir.Stmt) string {
	switch st.Kind {
	case ir.SAssign:
		return fmt.Sprintf("%s = ...", st.Lhs)
	case ir.SIf:
		return "if (...)"
	case ir.SIfGoto:
		return fmt.Sprintf("if (...) goto %d", st.Label)
	case ir.SGoto:
		return fmt.Sprintf("goto %d", st.Label)
	case ir.SContinue:
		return fmt.Sprintf("%d continue", st.Label)
	case ir.SRedistribute:
		return fmt.Sprintf("redistribute %s", st.Redist.Array.Name)
	case ir.SLoopBounds:
		return "loop bounds"
	}
	return "?"
}
