package pass

import (
	"fmt"
	"slices"

	"phpf/internal/dataflow"
	"phpf/internal/diag"
	"phpf/internal/ir"
)

// AutoPriv is the privatization inference pass and the one
// place the privatization mode is applied. It writes every loop's effective
// privatization facts (ir.Loop.Private / LastPrivate, read by the mapping
// pass through ir.Loop.Privatizes): first what the directives assert — NEW
// clauses and the §3.1 NODEPS-implied arrays, nothing under strict — then,
// when insert is set, what it can prove itself. For that it classifies every
// variable written inside a loop as private / lastprivate / serialized on the
// CFG and SSA facts (dataflow.ClassifyPrivatization) and adds the provable
// decisions to the loops' facts, equivalent to what a NEW clause would have
// asserted.
//
// Insertion picks the outermost loop per variable where the decision holds;
// decisions already covered by an ancestor's insertion (or by a directive's
// assertion) are skipped. Scalars classified plain-private are not listed:
// the mapping pass proves those itself from the same SSA facts, so a fact
// would be redundant. Every variable the pass declines to privatize anywhere
// along its write's loop chain gets a W-coded serialized-with-reason
// diagnostic naming the blocking reference.
//
// strict makes inference the only source of privatization facts: directives
// neither reach the loops' facts, nor suppress insertion, nor exempt a
// variable from the serialized diagnostic.
func AutoPriv(u *Unit, insert, strict bool) error {
	asserted := map[*ir.Var]bool{}
	for _, l := range u.Prog.Loops {
		l.Private, l.LastPrivate = nil, nil
		if !strict {
			assertDirectives(u.Prog, l, asserted)
		}
	}
	sum := dataflow.ClassifyPrivatization(u.Prog, u.CFG, u.SSA, u.Consts, u.Reductions())
	u.AutoPriv = sum
	if insert {
		runAutoPrivInsert(u, sum, asserted)
	}
	return nil
}

// assertDirectives lists in l.Private what the directives on l assert
// privatizable with respect to it — the variables its NEW clause names and,
// under NODEPS, every array the loop writes with subscripts all invariant
// with respect to it (§3.1: such a reference contributes memory-based
// loop-carried dependences eliminable only by privatization) — and marks
// them in asserted.
func assertDirectives(p *ir.Program, l *ir.Loop, asserted map[*ir.Var]bool) {
	add := func(v *ir.Var) {
		if v != nil && !slices.Contains(l.Private, v) {
			l.Private = append(l.Private, v)
			asserted[v] = true
		}
	}
	for _, name := range l.New {
		add(p.LookupVar(name))
	}
	if !l.NoDeps {
		return
	}
	for _, st := range p.Stmts {
		if st.Kind != ir.SAssign || !st.Lhs.Var.IsArray() || !ir.Encloses(l, st.Loop) {
			continue
		}
		invariant := true
		for _, sub := range st.Lhs.Subs {
			if sub.VariesIn(l) || !sub.OK {
				invariant = false
				break
			}
		}
		if invariant {
			add(st.Lhs.Var)
		}
	}
}

// runAutoPrivInsert adds the provable classifications to the loops' facts
// and reports what it declined; asserted holds the variables a directive
// already covers (empty under strict inference).
func runAutoPrivInsert(u *Unit, sum *dataflow.PrivSummary, asserted map[*ir.Var]bool) {
	p := u.Prog

	// satisfied[v] lists the loops with respect to which v's privatization
	// is established (inserted, analysis-provable, or directive-asserted).
	satisfied := map[*ir.Var][]*ir.Loop{}
	coveredAt := func(v *ir.Var, l *ir.Loop) bool {
		for _, sl := range satisfied[v] {
			for cur := l; cur != nil; cur = cur.Parent {
				if cur == sl {
					return true
				}
			}
		}
		return false
	}

	// Classes are in loop preorder, so an outer loop's decision is always
	// processed before its descendants'.
	for i := range sum.Classes {
		c := &sum.Classes[i]
		if c.Decision == dataflow.PrivSerialized || coveredAt(c.Var, c.Loop) {
			continue
		}
		if asserted[c.Var] {
			satisfied[c.Var] = append(satisfied[c.Var], c.Loop)
			continue
		}
		switch {
		case c.Decision == dataflow.PrivPrivate && c.Var.IsArray():
			c.Loop.Private = append(c.Loop.Private, c.Var)
			c.Inserted = true
			u.Diag(diag.Diagnostic{
				Severity: diag.Info, Stage: "autopriv", Code: diag.CodeInferredPrivate,
				Subject: c.Var.Name, Pos: diag.Pos{Line: c.Loop.Line},
				Msg: fmt.Sprintf("array %s inferred private with respect to the %s-loop (no NEW clause needed): %s",
					c.Var.Name, c.Loop.Index.Name, c.Reason),
			})
		case c.Decision == dataflow.PrivLastPrivate:
			c.Loop.LastPrivate = append(c.Loop.LastPrivate, c.Var)
			c.Inserted = true
			u.Diag(diag.Diagnostic{
				Severity: diag.Info, Stage: "autopriv", Code: diag.CodeLastPrivate,
				Subject: c.Var.Name, Pos: diag.Pos{Line: c.Loop.Line},
				Msg: fmt.Sprintf("scalar %s inferred lastprivate with respect to the %s-loop: %s",
					c.Var.Name, c.Loop.Index.Name, c.Reason),
			})
		}
		// Plain-private scalars: provable by the mapping pass from the
		// same SSA facts; established without a fact.
		satisfied[c.Var] = append(satisfied[c.Var], c.Loop)
	}

	// Serialized-with-reason diagnostics: one per variable whose writes sit
	// under loops where no level of the enclosing chain privatized it.
	warned := map[*ir.Var]bool{}
	for _, st := range p.Stmts {
		if st.Kind != ir.SAssign || st.Loop == nil {
			continue
		}
		v := st.Lhs.Var
		if warned[v] || v.IsLoopIndex {
			continue
		}
		if asserted[v] {
			continue
		}
		var cls *dataflow.PrivClass
		sat := false
		for l := st.Loop; l != nil; l = l.Parent {
			if coveredAt(v, l) {
				sat = true
				break
			}
			if cc := sum.Of(v, l); cc != nil && cls == nil {
				cls = cc // innermost candidate level: most precise reason
			}
		}
		if sat || cls == nil {
			continue
		}
		warned[v] = true
		pos := diag.Pos{Line: st.Line, Col: st.Col}
		if cls.Blocking != nil {
			pos = diag.Pos{Line: cls.Blocking.Stmt.Line, Col: cls.Blocking.Stmt.Col}
		}
		u.Diag(diag.Diagnostic{
			Severity: diag.Warning, Stage: "autopriv", Code: diag.CodeSerialized,
			Subject: v.Name, Pos: pos,
			Msg: fmt.Sprintf("%s %s with respect to the %s-loop",
				kindWord(v), cls.Reason, cls.Loop.Index.Name),
		})
	}
}

func kindWord(v *ir.Var) string {
	if v.IsArray() {
		return "array " + v.Name
	}
	return "scalar " + v.Name
}
