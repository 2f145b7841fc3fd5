package pass

import (
	"fmt"
	"sort"
	"strings"

	"phpf/internal/ast"
	"phpf/internal/ir"
	"phpf/internal/ssa"
)

// DumpUnit renders a stable textual snapshot of every structure currently
// built on the unit (non-nil, so nothing a rewrite made stale), for
// -dump-after and golden tests. The output is deterministic: all map
// iterations are sorted, and no addresses or timings appear.
func DumpUnit(u *Unit) string {
	var sb strings.Builder
	if u.Prog != nil {
		sb.WriteString("== ir ==\n")
		dumpIR(&sb, u.Prog)
	}
	if u.CFG != nil {
		sb.WriteString("== cfg ==\n")
		sb.WriteString(u.CFG.String())
	}
	if u.SSA != nil {
		sb.WriteString("== ssa ==\n")
		dumpSSA(&sb, u.SSA)
	}
	if u.Consts != nil {
		sb.WriteString("== consts ==\n")
		dumpConsts(&sb, u)
	}
	if u.AutoPriv != nil {
		sb.WriteString("== autopriv ==\n")
		sb.WriteString(u.AutoPriv.String())
	}
	if u.ReducePlan != nil {
		sb.WriteString("== reduceplan ==\n")
		for _, d := range u.ReducePlan.Decisions {
			fmt.Fprintf(&sb, "%s\n", d)
		}
	}
	if u.Mapping != nil {
		sb.WriteString("== mapping ==\n")
		dumpMapping(&sb, u)
	}
	return sb.String()
}

func dumpIR(sb *strings.Builder, p *ir.Program) {
	fmt.Fprintf(sb, "program %s\n", p.Name)
	for _, v := range p.VarList {
		fmt.Fprintf(sb, "var %s", v.Name)
		if v.IsArray() {
			sb.WriteString("(")
			for i, d := range v.Dims {
				if i > 0 {
					sb.WriteString(",")
				}
				fmt.Fprintf(sb, "%d", d)
			}
			sb.WriteString(")")
		}
		if v.IsLoopIndex {
			sb.WriteString(" loop-index")
		}
		sb.WriteString("\n")
	}
	for _, st := range p.Stmts {
		fmt.Fprintf(sb, "s%d %s %s", st.ID, st.Pos(), st.Kind)
		switch st.Kind {
		case ir.SAssign:
			fmt.Fprintf(sb, " %s = %s", st.Lhs, ast.ExprString(st.Rhs))
		case ir.SIf, ir.SIfGoto:
			fmt.Fprintf(sb, " (%s)", ast.ExprString(st.Cond))
			if st.Kind == ir.SIfGoto {
				fmt.Fprintf(sb, " goto %d", st.Label)
			}
		case ir.SGoto:
			fmt.Fprintf(sb, " %d", st.Label)
		case ir.SContinue:
			fmt.Fprintf(sb, " %d", st.Label)
		case ir.SRedistribute:
			fmt.Fprintf(sb, " %s", st.Redist.Array.Name)
		}
		if st.Loop != nil {
			fmt.Fprintf(sb, " in %s-loop", st.Loop.Index.Name)
		}
		sb.WriteString("\n")
	}
}

func dumpSSA(sb *strings.Builder, s *ssa.SSA) {
	for _, v := range s.Values {
		fmt.Fprintf(sb, "v%d %s", v.ID, v)
		if v.Kind == ssa.VPhi {
			sb.WriteString(" <-")
			for _, a := range v.Args {
				if a == nil {
					sb.WriteString(" _")
				} else {
					fmt.Fprintf(sb, " v%d", a.ID)
				}
			}
		}
		if n := len(v.UseRefs); n > 0 {
			fmt.Fprintf(sb, " uses:%d", n)
		}
		sb.WriteString("\n")
	}
}

func dumpConsts(sb *strings.Builder, u *Unit) {
	for _, v := range u.SSA.Values {
		c, ok := u.Consts.ValueConst(v)
		if !ok {
			continue
		}
		if c.IsInt {
			fmt.Fprintf(sb, "v%d %s = %d\n", v.ID, v, c.I)
		} else {
			fmt.Fprintf(sb, "v%d %s = %g\n", v.ID, v, c.F)
		}
	}
}

func dumpMapping(sb *strings.Builder, u *Unit) {
	m := u.Mapping
	fmt.Fprintf(sb, "grid(")
	for i, d := range m.Grid.Shape {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(sb, "%d", d)
	}
	sb.WriteString(")\n")
	var names []string
	byName := map[string]*ir.Var{}
	for v := range m.Arrays {
		names = append(names, v.Name)
		byName[v.Name] = v
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(sb, "%s\n", m.Arrays[byName[n]])
	}
}
