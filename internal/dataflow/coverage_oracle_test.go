package dataflow

import (
	"fmt"
	"strings"
	"testing"

	"phpf/internal/ast"
	"phpf/internal/ir"
	"phpf/internal/parser"
	"phpf/internal/programs"
)

// covOracle checks one `private` array decision by brute force: it enumerates
// the program's iteration space and requires every element of the array read
// in an iteration of the decision's loop to have been written earlier in that
// same iteration by an unconditional statement — the claim the inference
// makes, checked on the claim rather than on the text of the inference.
type covOracle struct {
	c       *PrivClass
	idx     map[string]ast.Const
	written map[string]bool // elements written so far in this iteration of c.Loop (nil outside it)
}

func (o *covOracle) int(e ast.Expr) int64 {
	c, ok := ast.Fold(e, func(x *ast.Ref) (ast.Const, bool) { v, ok := o.idx[x.Name]; return v, ok && len(x.Subs) == 0 })
	if c = c.Round(); !ok || !c.IsInt {
		panic("the oracle cannot evaluate " + ast.ExprString(e))
	}
	return c.I
}

func (o *covOracle) walk(nodes []ir.Node) {
	for _, n := range nodes {
		switch x := n.(type) {
		case *ir.Loop:
			lo, hi, step := o.int(x.Lo.Expr), o.int(x.Hi.Expr), int64(1)
			if x.Step != nil {
				step = o.int(x.Step)
			}
			for v := lo; (step > 0 && v <= hi) || (step < 0 && v >= hi); v += step {
				o.idx[x.Index.Name] = ast.Int(v)
				if x == o.c.Loop {
					o.written = map[string]bool{}
				}
				o.walk(x.Body)
			}
			if x == o.c.Loop {
				o.written = nil
			}
		case *ir.If:
			o.stmt(x.Cond)
			o.walk(x.Then)
			o.walk(x.Else)
		case *ir.Stmt:
			o.stmt(x)
		}
	}
}

func (o *covOracle) stmt(st *ir.Stmt) {
	if o.written == nil {
		return
	}
	if st.Kind == ir.SGoto || st.Kind == ir.SIfGoto {
		panic("the oracle does not follow jumps")
	}
	element := func(r *ir.Ref) string {
		pos := make([]int64, len(r.Ast.Subs))
		for k, sub := range r.Ast.Subs {
			pos[k] = o.int(sub)
		}
		return fmt.Sprint(pos)
	}
	for _, u := range st.Uses {
		if u.Var == o.c.Var && !o.written[element(u)] {
			panic(fmt.Errorf("%s is private wrt the %s-loop, but %s reads element %s unwritten in iteration %v",
				o.c.Var.Name, o.c.Loop.Index.Name, refAt(u), element(u), o.idx[o.c.Loop.Index.Name].I))
		}
	}
	if st.Kind == ir.SAssign && st.Lhs.Var == o.c.Var && len(st.EnclosingIfs) == 0 {
		o.written[element(st.Lhs)] = true
	}
}

// checkPrivateClaims runs the oracle over every array the classification of
// ap marks private and returns how many decisions it checked; the first
// violation of each is a test error.
func checkPrivateClaims(t *testing.T, name string, ap *ast.Program) (checked int) {
	p, sum := classifyAST(t, ap)
	for i := range sum.Classes {
		if c := &sum.Classes[i]; c.Decision == PrivPrivate && c.Var.IsArray() {
			func() {
				defer func() {
					switch r := recover().(type) {
					case nil:
						checked++
					case error: // a violation
						t.Errorf("%s: %v", name, r)
					default:
						t.Logf("%s: %s wrt %s-loop not checked: %v", name, c.Var.Name, c.Loop.Index.Name, r)
					}
				}()
				(&covOracle{c: c, idx: map[string]ast.Const{}}).walk(p.Body)
			}()
		}
	}
	return checked
}

// innerLoops lists the loops of ap nested in another loop, in source order.
func innerLoops(ap *ast.Program) (out []*ast.DoLoop) {
	seen := map[*ast.DoLoop]bool{}
	ast.WalkStmts(ap.Body, func(s ast.Stmt) {
		if outer, ok := s.(*ast.DoLoop); ok {
			ast.WalkStmts(outer.Body, func(s ast.Stmt) {
				if l, ok := s.(*ast.DoLoop); ok && !seen[l] {
					seen[l], out = true, append(out, l)
				}
			})
		}
	})
	return out
}

// headerMutations rewrite one loop header: to stride 2, to descending order,
// and to descending order from one above the range.
var headerMutations = map[string]func(l *ast.DoLoop){
	"stride 2":   func(l *ast.DoLoop) { l.Step = &ast.IntConst{Value: 2} },
	"descending": func(l *ast.DoLoop) { l.Lo, l.Hi, l.Step = l.Hi, l.Lo, &ast.IntConst{Value: -1} },
	"descending from above": func(l *ast.DoLoop) {
		l.Lo, l.Hi, l.Step = &ast.BinOp{Op: ast.Add, L: l.Hi, R: &ast.IntConst{Value: 1}}, l.Lo, &ast.IntConst{Value: -1}
	},
}

// TestPrivateClaimsHold holds every `private` array decision — on the decision
// table's rows, the figures and the kernels at a small size, and on each of
// them again with one inner loop header at a time strided or reversed — to
// the oracle.
func TestPrivateClaimsHold(t *testing.T) {
	srcs := map[string]string{
		"tomcatv": programs.TOMCATV(9, 1), "dgefa": programs.DGEFA(6), "appsp1d": programs.APPSP(6, 6, 6, 1, false),
		"appsp2d": programs.APPSP(6, 6, 6, 1, true), "histogram": programs.Histogram(8, 4, 1),
		"dotsweep": programs.DotSweep(6, 6), "smooth": programs.Smooth(8, 1),
	}
	for name, src := range programs.Figures {
		srcs[name] = strings.NewReplacer("parameter n = 100", "parameter n = 12", "parameter n = 64", "parameter n = 12").Replace(src)
	}
	for _, row := range decisionRows {
		srcs[row.name] = row.src
	}
	parse := func(src string) *ast.Program {
		ap, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return ap
	}
	checked, mutants := 0, 0
	for name, src := range srcs {
		checked += checkPrivateClaims(t, name, parse(src))
		for k := range innerLoops(parse(src)) {
			for kind, mutate := range headerMutations {
				ap := parse(src) // a fresh tree per mutant
				l := innerLoops(ap)[k]
				if l.Step == nil {
					mutate(l)
					mutants++
					checked += checkPrivateClaims(t, fmt.Sprintf("%s with the %s-loop of line %d %s", name, l.Var, l.Line, kind), ap)
				}
			}
		}
	}
	t.Logf("%d private decisions checked over %d sources and %d mutants", checked, len(srcs), mutants)
	if checked < 20 || mutants < 60 {
		t.Errorf("too little for the oracle to do: the corpus should give it private arrays and inner loops")
	}
}
