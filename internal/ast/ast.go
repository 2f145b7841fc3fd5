// Package ast defines the abstract syntax tree for the mini-Fortran/HPF
// dialect: a program with declarations, HPF mapping directives, and a body of
// DO loops, IF statements, GOTOs and assignments over scalar and array
// variables.
package ast

import (
	"fmt"
	"slices"
	"strings"
)

// Type is a variable's element type.
type Type int

const (
	Integer Type = iota
	Real
)

func (t Type) String() string {
	if t == Integer {
		return "integer"
	}
	return "real"
}

// Program is a whole translation unit.
type Program struct {
	Name   string
	Params []*Param   // named integer constants
	Decls  []*VarDecl // variable declarations
	Dirs   []Directive
	Body   []Stmt
}

// Param is a named compile-time integer constant ("parameter n = 64").
type Param struct {
	Name  string
	Value int64
	Line  int
	Col   int
}

// VarDecl declares one variable, scalar (len(Dims)==0) or array.
type VarDecl struct {
	Name string
	Type Type
	Dims []Expr // extents; arrays are 1-based, size Dims[i] per dimension
	Line int
	Col  int
}

// IsArray reports whether the declaration has array shape.
func (d *VarDecl) IsArray() bool { return len(d.Dims) > 0 }

// ---------------------------------------------------------------------------
// Statements

// Stmt is any executable statement.
type Stmt interface {
	stmtNode()
	Pos() int // source line
}

// Assign is "lhs = rhs".
type Assign struct {
	Lhs  *Ref
	Rhs  Expr
	Line int
	Col  int
}

// DoLoop is "do v = lo, hi [, step] ... end do". Directives attached to the
// loop (INDEPENDENT / NODEPS with NEW lists) are stored in Dirs.
type DoLoop struct {
	Var     string
	Lo, Hi  Expr
	Step    Expr // nil means 1
	Body    []Stmt
	Dirs    []LoopDirective
	Line    int
	Col     int
	EndLine int
}

// If is a block IF: "if (cond) then ... [else ...] end if".
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
	Line int
	Col  int
}

// IfGoto is the logical IF form "if (cond) goto label".
type IfGoto struct {
	Cond  Expr
	Label int
	Line  int
	Col   int
}

// Goto is an unconditional "goto label".
type Goto struct {
	Label int
	Line  int
	Col   int
}

// Continue is a labeled "nnn continue" no-op, the target of GOTOs.
type Continue struct {
	Label int
	Line  int
	Col   int
}

// Redistribute is the executable "!hpf$ redistribute A(fmt,...)" directive,
// which changes the distribution of A at this point in the program (modeled
// at run time as an all-to-all).
type Redistribute struct {
	Array   string
	Formats []DistFormat
	Line    int
	Col     int
}

func (*Assign) stmtNode()       {}
func (*DoLoop) stmtNode()       {}
func (*If) stmtNode()           {}
func (*IfGoto) stmtNode()       {}
func (*Goto) stmtNode()         {}
func (*Continue) stmtNode()     {}
func (*Redistribute) stmtNode() {}

func (s *Assign) Pos() int       { return s.Line }
func (s *DoLoop) Pos() int       { return s.Line }
func (s *If) Pos() int           { return s.Line }
func (s *IfGoto) Pos() int       { return s.Line }
func (s *Goto) Pos() int         { return s.Line }
func (s *Continue) Pos() int     { return s.Line }
func (s *Redistribute) Pos() int { return s.Line }

// ---------------------------------------------------------------------------
// Expressions

// Expr is any expression.
type Expr interface {
	exprNode()
}

// Ref is a use or definition of a variable; scalar if len(Subs)==0.
type Ref struct {
	Name string
	Subs []Expr
	Line int
	Col  int

	// Slot caches the variable's 1-based slot number assigned by
	// ir.AssignSlots (0 = not yet assigned). The IR builder gives every
	// reference occurrence its own Ref node, so the cache is sound; the
	// evaluator uses it to resolve the variable without a name lookup.
	Slot int32
}

// IntConst is an integer literal.
type IntConst struct{ Value int64 }

// RealConst is a floating-point literal.
type RealConst struct{ Value float64 }

// BinOp operators.
type Op int

const (
	Add Op = iota
	Sub
	Mul
	Div
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var opStr = [...]string{"+", "-", "*", "/", "==", "/=", "<", "<=", ">", ">=", "and", "or"}

func (o Op) String() string { return opStr[o] }

// IsRelational reports whether the operator yields a logical value.
func (o Op) IsRelational() bool { return o >= OpEq }

// BinOp is a binary operation.
type BinOp struct {
	Op   Op
	L, R Expr
}

// UnaryMinus is arithmetic negation.
type UnaryMinus struct{ X Expr }

// Not is logical negation.
type Not struct{ X Expr }

// Call is an intrinsic function call (a name of the Intrinsics table).
type Call struct {
	Name string
	Args []Expr
}

func (*Ref) exprNode()        {}
func (*IntConst) exprNode()   {}
func (*RealConst) exprNode()  {}
func (*BinOp) exprNode()      {}
func (*UnaryMinus) exprNode() {}
func (*Not) exprNode()        {}
func (*Call) exprNode()       {}

// ---------------------------------------------------------------------------
// Directives

// Directive is a declarative HPF mapping directive.
type Directive interface {
	dirNode()
	Pos() int
}

// ProcessorsDir declares the processor grid: "processors P(4,4)". Extents of
// 0 denote "fill with available processors" (set at compile time).
type ProcessorsDir struct {
	Name    string
	Extents []Expr
	Line    int
	Col     int
}

// DistKind is a per-dimension distribution format.
type DistKind int

const (
	DistNone DistKind = iota // "*": dimension not distributed
	DistBlock
	DistCyclic
)

func (k DistKind) String() string {
	switch k {
	case DistBlock:
		return "block"
	case DistCyclic:
		return "cyclic"
	}
	return "*"
}

// DistFormat is one dimension's distribution specification.
type DistFormat struct {
	Kind DistKind
}

// DistributeDir maps arrays onto the processor grid:
// "distribute (block, *) :: a, b" or "distribute a(block, *)".
type DistributeDir struct {
	Formats []DistFormat
	Arrays  []string
	Line    int
	Col     int
}

// AlignSub is one target subscript in an ALIGN directive: either a dummy
// variable (possibly with offset, e.g. i+1), a "*" (replicate over that
// target dimension), or a constant.
type AlignSub struct {
	Dummy  string // "" for "*" or constant
	Offset int64
	Star   bool
	Const  bool
	Value  int64
}

// AlignDir aligns arrays with a target array:
// "align b(i) with a(i,*) [:: more arrays]" or "align (i) with a(i) :: b, c".
type AlignDir struct {
	Dummies []string   // source dummy variables, one per source dimension
	Target  string     // target array name
	Subs    []AlignSub // target subscripts, one per target dimension
	Arrays  []string   // arrays being aligned
	Line    int
	Col     int
}

func (*ProcessorsDir) dirNode() {}
func (*DistributeDir) dirNode() {}
func (*AlignDir) dirNode()      {}

func (d *ProcessorsDir) Pos() int { return d.Line }
func (d *DistributeDir) Pos() int { return d.Line }
func (d *AlignDir) Pos() int      { return d.Line }

// LoopDirective annotates the DO loop that follows it.
type LoopDirective struct {
	Independent bool     // INDEPENDENT: iterations reorderable
	NoDeps      bool     // NODEPS: no true loop-carried value dependences
	New         []string // NEW(...) clause: privatizable variables
	Line        int
	Col         int
}

// ---------------------------------------------------------------------------
// Printing

// ExprString renders an expression as surface syntax.
func ExprString(e Expr) string {
	switch x := e.(type) {
	case *Ref:
		if len(x.Subs) == 0 {
			return x.Name
		}
		parts := make([]string, len(x.Subs))
		for i, s := range x.Subs {
			parts[i] = ExprString(s)
		}
		return fmt.Sprintf("%s(%s)", x.Name, strings.Join(parts, ","))
	case *IntConst:
		return fmt.Sprintf("%d", x.Value)
	case *RealConst:
		return fmt.Sprintf("%g", x.Value)
	case *BinOp:
		return fmt.Sprintf("(%s %s %s)", ExprString(x.L), x.Op, ExprString(x.R))
	case *UnaryMinus:
		return fmt.Sprintf("(-%s)", ExprString(x.X))
	case *Not:
		return fmt.Sprintf("(not %s)", ExprString(x.X))
	case *Call:
		parts := make([]string, len(x.Args))
		for i, a := range x.Args {
			parts[i] = ExprString(a)
		}
		return fmt.Sprintf("%s(%s)", x.Name, strings.Join(parts, ","))
	}
	return "?"
}

// Equal reports whether a and b are the same expression: the same tree, with
// literals compared by the value the run time computes (1 equals 1.0, and
// 1000000 equals 1e6, which ExprString prints differently). A reference and
// a call of one name and operands differ, though ExprString prints both
// alike; in an expression the parser makes every intrinsic name applied to
// arguments a call.
func Equal(a, b Expr) bool {
	switch x := a.(type) {
	case *Ref:
		y, ok := b.(*Ref)
		return ok && x.Name == y.Name && slices.EqualFunc(x.Subs, y.Subs, Equal)
	case *IntConst, *RealConst:
		switch b.(type) {
		case *IntConst, *RealConst:
			u, _ := Fold(a, nil)
			v, _ := Fold(b, nil)
			return u.Equal(v)
		}
		return false
	case *BinOp:
		y, ok := b.(*BinOp)
		return ok && x.Op == y.Op && Equal(x.L, y.L) && Equal(x.R, y.R)
	case *UnaryMinus:
		y, ok := b.(*UnaryMinus)
		return ok && Equal(x.X, y.X)
	case *Not:
		y, ok := b.(*Not)
		return ok && Equal(x.X, y.X)
	case *Call:
		y, ok := b.(*Call)
		return ok && x.Name == y.Name && slices.EqualFunc(x.Args, y.Args, Equal)
	}
	return a == b
}

// Walk calls fn for every expression node in e, parents before children.
func Walk(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Ref:
		for _, s := range x.Subs {
			Walk(s, fn)
		}
	case *BinOp:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case *UnaryMinus:
		Walk(x.X, fn)
	case *Not:
		Walk(x.X, fn)
	case *Call:
		for _, a := range x.Args {
			Walk(a, fn)
		}
	}
}

// WalkStmts calls fn for every statement in the list, recursively, parents
// before children.
func WalkStmts(stmts []Stmt, fn func(Stmt)) {
	for _, s := range stmts {
		fn(s)
		switch x := s.(type) {
		case *DoLoop:
			WalkStmts(x.Body, fn)
		case *If:
			WalkStmts(x.Then, fn)
			WalkStmts(x.Else, fn)
		}
	}
}

// Refs collects every Ref in an expression, in source order.
func Refs(e Expr) []*Ref {
	var out []*Ref
	Walk(e, func(x Expr) {
		if r, ok := x.(*Ref); ok {
			out = append(out, r)
		}
	})
	return out
}
