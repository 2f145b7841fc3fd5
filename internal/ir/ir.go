// Package ir lowers an ast.Program into the analyzed intermediate form used
// by the rest of the compiler: a symbol table with evaluated shapes, a loop
// nest tree with nesting levels, a flat numbered statement list, and explicit
// reference objects for every variable occurrence (definitions and uses).
//
// Parameters (named integer constants) are substituted into every expression
// during lowering, so downstream analyses see only literals, loop indices,
// and program variables.
package ir

import (
	"slices"

	"phpf/internal/ast"
	"phpf/internal/diag"
)

// Var is a program variable (scalar or array).
type Var struct {
	Name string
	Type ast.Type
	Dims []int64 // evaluated extents; empty for scalars (1-based indexing)

	// Slot is the dense 0-based index AssignSlots gave this variable
	// (declaration order). Valid only after AssignSlots ran; the
	// interpreter's State uses it to index flat value slices instead of
	// probing pointer-keyed maps.
	Slot int32

	IsLoopIndex bool // used as a DO index somewhere in the program

	// DefLoops is the set of loops whose body contains an assignment to
	// this scalar (used by VarLevel for non-affine subscripts; nil when
	// there is none).
	DefLoops map[*Loop]bool
}

// IsArray reports whether v has array shape.
func (v *Var) IsArray() bool { return len(v.Dims) > 0 }

// Rank returns the number of dimensions (0 for scalars).
func (v *Var) Rank() int { return len(v.Dims) }

// Size returns the total number of elements (1 for scalars).
func (v *Var) Size() int64 {
	n := int64(1)
	for _, d := range v.Dims {
		n *= d
	}
	return n
}

// Node is an element of the structured program tree: *Loop, *If, or *Stmt.
type Node interface{ node() }

// Loop is a DO loop.
type Loop struct {
	ID    int // preorder index among loops
	Index *Var
	// Lo and Hi are the bounds, analysed over the enclosing loops' indices
	// (Lo.Expr and Hi.Expr are the expressions). StepConst is the step when
	// the compiler knows it — 1 for a nil Step, else Step folded and rounded
	// as the run rounds it — and 0, the one step no loop runs with, when it
	// does not. All three are AnalyzeForms' to fill.
	Lo, Hi    Affine
	Step      ast.Expr // nil means 1
	StepConst int64
	Body      []Node

	Parent *Loop
	Level  int // 1-based nesting depth (outermost loop = 1)

	Independent bool
	NoDeps      bool
	New         []string // NEW clause variables (privatizable wrt this loop)

	// Private and LastPrivate are the loop's effective privatization facts,
	// written by the autopriv pass (from scratch on every run) and read
	// through Privatizes: Private lists the variables privatizable with
	// respect to this loop — what the directives assert under the
	// compilation's privatization mode (NEW clauses and the arrays a NODEPS
	// directive implies, §3.1) plus the arrays the pass proved private —
	// and LastPrivate the scalars it proved lastprivate: privatizable
	// within the loop with the final iteration's value live after it,
	// requiring a copy-out at loop exit.
	Private     []*Var
	LastPrivate []*Var

	// BoundsStmt is a pseudo-statement (Kind SLoopBounds) carrying the
	// uses of scalar variables appearing in the loop bounds; it executes
	// in the loop's preheader. Nil when the bounds reference no tracked
	// scalars.
	BoundsStmt *Stmt

	Line int
}

// Range returns the bounds between which the index runs, in the direction the
// loop runs: (Lo, Hi) for a positive constant step, (Hi, Lo) for a negative
// one. For a step other than ±1 the index takes only some of the values in
// between. ok is false when the step is not a known constant.
func (l *Loop) Range() (low, high Affine, ok bool) {
	if l.StepConst < 0 {
		return l.Hi, l.Lo, true
	}
	return l.Lo, l.Hi, l.StepConst != 0
}

// Privatizes reports whether the loop's privatization facts name v, and
// whether only as lastprivate (valid only with the copy-out at loop exit).
func (l *Loop) Privatizes(v *Var) (ok, lastOnly bool) {
	if slices.Contains(l.Private, v) {
		return true, false
	}
	last := slices.Contains(l.LastPrivate, v)
	return last, last
}

// If is a block IF with a condition statement and two branches.
type If struct {
	Cond *Stmt // Kind == SIf; carries the predicate's references
	Then []Node
	Else []Node
	Line int
}

// StmtKind discriminates leaf statements.
type StmtKind int

const (
	SAssign       StmtKind = iota // Lhs = Rhs
	SIf                           // block-IF predicate evaluation
	SIfGoto                       // if (Cond) goto Label
	SGoto                         // goto Label
	SContinue                     // Label continue
	SRedistribute                 // executable redistribute directive
	SLoopBounds                   // pseudo-statement: loop bound evaluation
)

func (k StmtKind) String() string {
	switch k {
	case SAssign:
		return "assign"
	case SIf:
		return "if"
	case SIfGoto:
		return "ifgoto"
	case SGoto:
		return "goto"
	case SContinue:
		return "continue"
	case SRedistribute:
		return "redistribute"
	case SLoopBounds:
		return "loopbounds"
	}
	return "?"
}

// Stmt is a leaf statement. All statements of a program are numbered in
// program (textual) order; analyses attach information to these objects.
type Stmt struct {
	ID   int
	Kind StmtKind
	Line int
	Col  int // 1-based source column (0 when unknown)

	Lhs  *Ref     // SAssign: the definition
	Rhs  ast.Expr // SAssign
	Cond ast.Expr // SIf, SIfGoto

	Label int // SGoto, SIfGoto, SContinue

	Loop   *Loop // innermost enclosing loop (nil at top level)
	IfNode *If   // for SIf: the owning If

	// EnclosingIfs lists the If/IfGoto predicates this statement is
	// control dependent on, outermost first (within structured Ifs only).
	EnclosingIfs []*Stmt

	Uses []*Ref // all use references: rhs, condition, and subscripts

	Redist *Redist // SRedistribute
}

// Redist describes an executable redistribution.
type Redist struct {
	Array   *Var
	Formats []ast.DistFormat
}

func (*Loop) node() {}
func (*If) node()   {}
func (*Stmt) node() {}

// Ref is one occurrence of a variable in the program.
type Ref struct {
	ID    int
	Ast   *ast.Ref
	Var   *Var
	Stmt  *Stmt
	IsDef bool
	// InSubscript is true when this use appears inside a subscript of some
	// other reference (its value may need to be known by whoever evaluates
	// the enclosing reference).
	InSubscript bool
	// EnclosingRef is the reference whose subscript contains this use
	// (nil if not in a subscript).
	EnclosingRef *Ref

	// Subs holds the per-dimension affine analysis of array subscripts.
	Subs []Affine
}

// String renders the reference as source text.
func (r *Ref) String() string { return ast.ExprString(r.Ast) }

// Program is the lowered program.
type Program struct {
	Name   string
	Params map[string]int64
	Vars   map[string]*Var
	// VarList is Vars in declaration order (deterministic iteration).
	VarList []*Var

	Body []Node

	Loops []*Loop // preorder
	Stmts []*Stmt // program order
	Refs  []*Ref  // program order

	// Directives carried through for the distribution package.
	Dirs []ast.Directive

	// Slots is the dense variable numbering built by AssignSlots (nil
	// until the slots pass — or a lazy consumer — runs it).
	Slots *SlotTable

	Source *ast.Program
}

// LookupVar returns the variable named name, or nil.
func (p *Program) LookupVar(name string) *Var { return p.Vars[name] }

// Pos returns the statement's source position.
func (s *Stmt) Pos() diag.Pos { return diag.Pos{Line: s.Line, Col: s.Col} }

// errf builds a fatal, positioned IR-construction diagnostic.
func errf(line int, format string, args ...any) error {
	return errfAt(diag.Pos{Line: line}, format, args...)
}

func errfAt(pos diag.Pos, format string, args ...any) error {
	return diag.Errorf("ir", diag.CodeIRBuild, pos, format, args...)
}

type builder struct {
	prog   *Program
	labels map[int]bool
	gotos  []gotoSite
}

type gotoSite struct {
	label int
	line  int
	loop  *Loop
}

// Build lowers an AST program to IR, validating declarations, references and
// control flow.
func Build(src *ast.Program) (*Program, error) {
	b := &builder{
		prog: &Program{
			Name:   src.Name,
			Params: map[string]int64{},
			Vars:   map[string]*Var{},
			Dirs:   src.Dirs,
			Source: src,
		},
		labels: map[int]bool{},
	}
	for _, pa := range src.Params {
		if _, dup := b.prog.Params[pa.Name]; dup {
			return nil, errfAt(diag.Pos{Line: pa.Line, Col: pa.Col}, "duplicate parameter %s", pa.Name)
		}
		b.prog.Params[pa.Name] = pa.Value
	}
	for _, d := range src.Decls {
		if _, dup := b.prog.Vars[d.Name]; dup {
			return nil, errfAt(diag.Pos{Line: d.Line, Col: d.Col}, "duplicate declaration of %s", d.Name)
		}
		if _, isParam := b.prog.Params[d.Name]; isParam {
			return nil, errfAt(diag.Pos{Line: d.Line, Col: d.Col}, "%s already declared as parameter", d.Name)
		}
		v := &Var{Name: d.Name, Type: d.Type}
		if len(d.Dims) > 0 {
			v.Dims = make([]int64, 0, len(d.Dims))
		}
		for _, de := range d.Dims {
			n, ok := ast.Fold(de, b.paramConst)
			if !ok || !n.IsInt || n.I < 1 {
				return nil, errfAt(diag.Pos{Line: d.Line, Col: d.Col},
					"array %s: extent %s is not a constant integer >= 1", d.Name, ast.ExprString(de))
			}
			v.Dims = append(v.Dims, n.I)
		}
		b.prog.Vars[d.Name] = v
		b.prog.VarList = append(b.prog.VarList, v)
	}

	// Pre-mark loop index variables so references to them are treated as
	// implicitly-known values (not tracked as defs/uses) from the start.
	var markIndices func([]ast.Stmt) error
	markIndices = func(stmts []ast.Stmt) error {
		var err error
		ast.WalkStmts(stmts, func(s ast.Stmt) {
			if lp, ok := s.(*ast.DoLoop); ok && err == nil {
				v, found := b.prog.Vars[lp.Var]
				if !found {
					err = errf(lp.Line, "undeclared loop index %s", lp.Var)
					return
				}
				if v.IsArray() {
					err = errf(lp.Line, "loop index %s is an array", lp.Var)
					return
				}
				v.IsLoopIndex = true
			}
		})
		return err
	}
	if err := markIndices(src.Body); err != nil {
		return nil, err
	}

	body, err := b.buildStmts(src.Body, nil)
	if err != nil {
		return nil, err
	}
	b.prog.Body = body

	// Validate GOTO targets.
	for _, g := range b.gotos {
		if !b.labels[g.label] {
			return nil, errf(g.line, "goto target %d not found", g.label)
		}
	}

	// Record, per scalar, the loops containing a definition of it.
	for _, s := range b.prog.Stmts {
		if s.Kind != SAssign || s.Lhs.Var.IsArray() || s.Loop == nil {
			continue
		}
		v := s.Lhs.Var
		if v.DefLoops == nil {
			v.DefLoops = map[*Loop]bool{}
		}
		for l := s.Loop; l != nil; l = l.Parent {
			v.DefLoops[l] = true
		}
	}

	// Analyze subscripts and bounds now that loop nesting is known.
	b.prog.AnalyzeForms()
	return b.prog, nil
}

func (b *builder) buildStmts(stmts []ast.Stmt, loop *Loop) ([]Node, error) {
	out := make([]Node, len(stmts))
	for i, s := range stmts {
		n, err := b.buildStmt(s, loop)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

func (b *builder) newStmt(kind StmtKind, loop *Loop, line, col int) *Stmt {
	s := &Stmt{ID: len(b.prog.Stmts), Kind: kind, Loop: loop, Line: line, Col: col}
	b.prog.Stmts = append(b.prog.Stmts, s)
	return s
}

func (b *builder) buildStmt(s ast.Stmt, loop *Loop) (Node, error) {
	switch x := s.(type) {
	case *ast.Assign:
		st := b.newStmt(SAssign, loop, x.Line, x.Col)
		lhs, err := b.buildRef(x.Lhs, st, true, nil)
		if err != nil {
			return nil, err
		}
		st.Lhs = lhs
		rhs, err := b.rewriteExpr(x.Rhs, st, nil, x.Line)
		if err != nil {
			return nil, err
		}
		st.Rhs = rhs
		if lhs.Var.IsLoopIndex {
			return nil, errf(x.Line, "assignment to loop index %s", lhs.Var.Name)
		}
		return st, nil

	case *ast.DoLoop:
		v, ok := b.prog.Vars[x.Var]
		if !ok {
			return nil, errf(x.Line, "undeclared loop index %s", x.Var)
		}
		if v.IsArray() {
			return nil, errf(x.Line, "loop index %s is an array", x.Var)
		}
		for l := loop; l != nil; l = l.Parent {
			if l.Index == v {
				return nil, errf(x.Line, "loop index %s reused in nested loop", x.Var)
			}
		}
		v.IsLoopIndex = true
		lp := &Loop{
			ID:     len(b.prog.Loops),
			Index:  v,
			Parent: loop,
			Level:  1,
			Line:   x.Line,
		}
		if loop != nil {
			lp.Level = loop.Level + 1
		}
		for _, d := range x.Dirs {
			if d.Independent {
				lp.Independent = true
			}
			if d.NoDeps {
				lp.NoDeps = true
			}
			for _, nv := range d.New {
				if _, ok := b.prog.Vars[nv]; !ok {
					return nil, errf(d.Line, "NEW clause names undeclared variable %s", nv)
				}
				lp.New = append(lp.New, nv)
			}
		}
		b.prog.Loops = append(b.prog.Loops, lp)
		var err error
		// Bounds are evaluated outside the loop. When they reference
		// tracked scalars (not parameters, not loop indices), those uses
		// are attached to a pseudo-statement executing in the preheader so
		// that the mapping analysis sees them (a scalar used in a loop
		// bound must be available on every processor).
		var bst *Stmt
		if b.boundsReferenceScalars(x.Lo) || b.boundsReferenceScalars(x.Hi) ||
			(x.Step != nil && b.boundsReferenceScalars(x.Step)) {
			bst = b.newStmt(SLoopBounds, loop, x.Line, x.Col)
			lp.BoundsStmt = bst
		}
		if lp.Lo.Expr, err = b.rewriteExpr(x.Lo, bst, nil, x.Line); err != nil {
			return nil, err
		}
		if lp.Hi.Expr, err = b.rewriteExpr(x.Hi, bst, nil, x.Line); err != nil {
			return nil, err
		}
		if x.Step != nil {
			if lp.Step, err = b.rewriteExpr(x.Step, bst, nil, x.Line); err != nil {
				return nil, err
			}
		}
		body, err := b.buildStmts(x.Body, lp)
		if err != nil {
			return nil, err
		}
		lp.Body = body
		return lp, nil

	case *ast.If:
		st := b.newStmt(SIf, loop, x.Line, x.Col)
		cond, err := b.rewriteExpr(x.Cond, st, nil, x.Line)
		if err != nil {
			return nil, err
		}
		st.Cond = cond
		ifn := &If{Cond: st, Line: x.Line}
		st.IfNode = ifn
		ifn.Then, err = b.buildStmts(x.Then, loop)
		if err != nil {
			return nil, err
		}
		ifn.Else, err = b.buildStmts(x.Else, loop)
		if err != nil {
			return nil, err
		}
		markControlDependent(ifn.Then, st)
		markControlDependent(ifn.Else, st)
		return ifn, nil

	case *ast.IfGoto:
		st := b.newStmt(SIfGoto, loop, x.Line, x.Col)
		cond, err := b.rewriteExpr(x.Cond, st, nil, x.Line)
		if err != nil {
			return nil, err
		}
		st.Cond = cond
		st.Label = x.Label
		b.gotos = append(b.gotos, gotoSite{label: x.Label, line: x.Line, loop: loop})
		return st, nil

	case *ast.Goto:
		st := b.newStmt(SGoto, loop, x.Line, x.Col)
		st.Label = x.Label
		b.gotos = append(b.gotos, gotoSite{label: x.Label, line: x.Line, loop: loop})
		return st, nil

	case *ast.Continue:
		if b.labels[x.Label] {
			return nil, errf(x.Line, "duplicate label %d", x.Label)
		}
		b.labels[x.Label] = true
		st := b.newStmt(SContinue, loop, x.Line, x.Col)
		st.Label = x.Label
		return st, nil

	case *ast.Redistribute:
		v, ok := b.prog.Vars[x.Array]
		if !ok {
			return nil, errf(x.Line, "redistribute of undeclared array %s", x.Array)
		}
		if !v.IsArray() {
			return nil, errf(x.Line, "redistribute of scalar %s", x.Array)
		}
		if len(x.Formats) != v.Rank() {
			return nil, errf(x.Line, "redistribute of %s: %d formats for rank %d",
				x.Array, len(x.Formats), v.Rank())
		}
		st := b.newStmt(SRedistribute, loop, x.Line, x.Col)
		st.Redist = &Redist{Array: v, Formats: x.Formats}
		return st, nil
	}
	return nil, errf(s.Pos(), "unsupported statement %T", s)
}

// markControlDependent records st as a controlling predicate of every leaf
// statement in the branch.
func markControlDependent(nodes []Node, st *Stmt) {
	for _, n := range nodes {
		switch x := n.(type) {
		case *Stmt:
			x.EnclosingIfs = append([]*Stmt{st}, x.EnclosingIfs...)
		case *Loop:
			markControlDependent(x.Body, st)
		case *If:
			// The nested If's own marking already recorded x.Cond on its
			// branch statements; here we add the outer predicate st to the
			// whole subtree (outermost first).
			x.Cond.EnclosingIfs = append([]*Stmt{st}, x.Cond.EnclosingIfs...)
			markControlDependent(x.Then, st)
			markControlDependent(x.Else, st)
		}
	}
}

// rewriteExpr substitutes parameters, validates references, and registers
// each variable occurrence as a use of st (nil for loop bounds that read no
// tracked scalar: parameters and loop indices register nothing). encl is the
// reference whose subscript we are inside of (nil at top level).
func (b *builder) rewriteExpr(e ast.Expr, st *Stmt, encl *Ref, line int) (ast.Expr, error) {
	var err error
	out := ast.Rewrite(e, func(x *ast.Ref) ast.Expr {
		if err != nil {
			return x
		}
		if val, isParam := b.prog.Params[x.Name]; isParam {
			if len(x.Subs) > 0 {
				err = errf(line, "parameter %s used with subscripts", x.Name)
			}
			return &ast.IntConst{Value: val}
		}
		r, rerr := b.buildRefIn(x, st, false, encl, line)
		if rerr != nil || r == nil {
			err = rerr
			return x
		}
		return r.Ast
	})
	return out, err
}

// boundsReferenceScalars reports whether a loop bound expression references
// any tracked scalar variable (not a parameter, not a loop index).
func (b *builder) boundsReferenceScalars(e ast.Expr) bool {
	found := false
	ast.Walk(e, func(x ast.Expr) {
		r, ok := x.(*ast.Ref)
		if !ok {
			return
		}
		if _, isParam := b.prog.Params[r.Name]; isParam {
			return
		}
		if v := b.prog.Vars[r.Name]; v != nil && !v.IsLoopIndex {
			found = true
		}
	})
	return found
}

func (b *builder) buildRef(a *ast.Ref, st *Stmt, isDef bool, encl *Ref) (*Ref, error) {
	return b.buildRefIn(a, st, isDef, encl, a.Line)
}

func (b *builder) buildRefIn(a *ast.Ref, st *Stmt, isDef bool, encl *Ref, line int) (*Ref, error) {
	// Prefer the reference's own token position; fall back to the
	// statement line for synthesized references.
	pos := diag.Pos{Line: a.Line, Col: a.Col}
	if pos.Line == 0 {
		pos = diag.Pos{Line: line}
	}
	v, ok := b.prog.Vars[a.Name]
	if !ok {
		return nil, errfAt(pos, "undeclared variable %s", a.Name)
	}
	if len(a.Subs) > 0 && !v.IsArray() {
		return nil, errfAt(pos, "scalar %s used with subscripts", a.Name)
	}
	if v.IsArray() && len(a.Subs) != v.Rank() {
		return nil, errfAt(pos, "array %s has rank %d, referenced with %d subscripts",
			a.Name, v.Rank(), len(a.Subs))
	}
	if v.IsLoopIndex {
		if isDef {
			return nil, errfAt(pos, "assignment to loop index %s", a.Name)
		}
		// Loop index values are implicitly known to every processor
		// executing the iteration; they are not tracked as references, and
		// the expression keeps the node.
		return nil, nil
	}
	r := &Ref{
		ID:           len(b.prog.Refs),
		Var:          v,
		Stmt:         st,
		IsDef:        isDef,
		InSubscript:  encl != nil,
		EnclosingRef: encl,
	}
	b.prog.Refs = append(b.prog.Refs, r)
	// Rewrite subscripts (registering their refs as uses nested under r).
	na := &ast.Ref{Name: a.Name, Line: a.Line, Col: a.Col}
	if len(a.Subs) > 0 {
		na.Subs = make([]ast.Expr, len(a.Subs))
	}
	for i, sub := range a.Subs {
		rs, err := b.rewriteExpr(sub, st, r, line)
		if err != nil {
			return nil, err
		}
		na.Subs[i] = rs
	}
	r.Ast = na
	if !isDef {
		st.Uses = append(st.Uses, r)
	}
	return r, nil
}

// paramConst resolves a reference in a declaration to the parameter it names.
func (b *builder) paramConst(x *ast.Ref) (ast.Const, bool) {
	v, ok := b.prog.Params[x.Name]
	return ast.Int(v), ok && len(x.Subs) == 0
}

// InnermostCommonLoop returns the innermost loop enclosing both a and b
// (nil if none).
func InnermostCommonLoop(a, b *Loop) *Loop {
	depth := func(l *Loop) int {
		d := 0
		for ; l != nil; l = l.Parent {
			d++
		}
		return d
	}
	da, db := depth(a), depth(b)
	for da > db {
		a = a.Parent
		da--
	}
	for db > da {
		b = b.Parent
		db--
	}
	for a != b {
		a = a.Parent
		b = b.Parent
	}
	return a
}

// Encloses reports whether outer encloses (or equals) inner.
func Encloses(outer, inner *Loop) bool {
	if outer == nil {
		return true
	}
	for l := inner; l != nil; l = l.Parent {
		if l == outer {
			return true
		}
	}
	return false
}
