package ast

import (
	"math"
	"slices"
)

// This file holds the one meaning of an expression that every compile-time
// reader shares (DESIGN.md §14): its value (Const, Fold, the Intrinsics
// table) and the one way to rebuild its tree (Rewrite).
//
// The run time is the definition: it computes every operator and intrinsic
// in float64, and an integer context (a store to an integer scalar, a
// subscript, a loop bound) rounds the result to the nearest integer of
// magnitude at most 2^53. Fold is a refinement of that: whenever it yields a
// constant, a run computes a float64 with the same bits.

// MaxExact, 2^53, bounds the integers of a program: every integer below it is
// a float64, and a float64 result below it is the exact result of exact
// operands, so integer arithmetic the run time carries out in float64 is
// exact. The fold classifies a constant as an integer only below it; the run
// time rejects a loop bound, subscript or trip count beyond it with a
// diagnostic instead of losing precision silently (or letting int64
// arithmetic wrap on adversarial, fuzz-reachable bounds).
const MaxExact = 1 << 53

// Const is a compile-time constant value: an integer (IsInt, in I) or a real
// (in F).
type Const struct {
	IsInt bool
	I     int64
	F     float64
}

// Float returns the value as the float64 the run time computes.
func (c Const) Float() float64 {
	if c.IsInt {
		return float64(c.I)
	}
	return c.F
}

// Equal reports whether two constants are the same run-time value, bit for
// bit (an integer equals the real of its value; 0.0 differs from -0.0).
func (c Const) Equal(o Const) bool {
	return math.Float64bits(c.Float()) == math.Float64bits(o.Float())
}

// Int returns the constant an integer literal denotes: itself below ±2^53,
// from there on the float64 the run time converts it to.
func Int(v int64) Const {
	c, _ := typed(float64(v), true)
	return c
}

// Round returns what an integer context makes of c: the run time's rounding
// store into an integer scalar.
func (c Const) Round() Const {
	r, _ := typed(math.Round(c.Float()), true)
	return r
}

// typed classifies a value the run time would compute. It is an integer
// constant when only integers went into it and it is itself an integer below
// ±2^53; -0.0, which no integer denotes, anything fractional or larger, and
// every value with a real operand stay real. A NaN is declined: it equals
// nothing, itself included, so no reader could use it.
func typed(f float64, isInt bool) (Const, bool) {
	if isInt && f == math.Trunc(f) && math.Abs(f) < MaxExact && !(f == 0 && math.Signbit(f)) {
		return Const{IsInt: true, I: int64(f)}, true
	}
	return Const{F: f}, !math.IsNaN(f)
}

// Arith is the arithmetic operator table, by Op; the relational and logical
// operators are not folded.
var Arith = [...]func(a, b float64) float64{
	Add: func(a, b float64) float64 { return a + b },
	Sub: func(a, b float64) float64 { return a - b },
	Mul: func(a, b float64) float64 { return a * b },
	Div: func(a, b float64) float64 { return a / b },
}

// Intrinsic describes one intrinsic function.
type Intrinsic struct {
	// Arity is the argument count the parser enforces (-1: two or more).
	Arity int
	// Flops is the operation count one application is charged (sqrt and exp
	// weighted heavier, per their latency on 1990s hardware).
	Flops int
	// One is the element function of an intrinsic of one argument, Two of one
	// of two or more (a variadic application is its left fold): the one
	// definition, which the fold and both forms of the run time apply.
	One func(a float64) float64
	Two func(a, b float64) float64
}

// Value computes one application, as the run time does.
func (in Intrinsic) Value(args []float64) float64 {
	if in.One != nil {
		return in.One(args[0])
	}
	v := args[0]
	for _, a := range args[1:] {
		v = in.Two(v, a)
	}
	return v
}

// Intrinsics is the table of recognized intrinsic functions: a new intrinsic
// is one entry here. max and min keep the first of equals, and a NaN that is
// not first never wins.
var Intrinsics = map[string]Intrinsic{
	"abs":  {Arity: 1, Flops: 1, One: math.Abs},
	"sqrt": {Arity: 1, Flops: 8, One: math.Sqrt},
	"exp":  {Arity: 1, Flops: 8, One: math.Exp},
	"max": {Arity: -1, Flops: 1, Two: func(x, y float64) float64 {
		if y > x {
			return y
		}
		return x
	}},
	"min": {Arity: -1, Flops: 1, Two: func(x, y float64) float64 {
		if y < x {
			return y
		}
		return x
	}},
	"mod": {Arity: 2, Flops: 1, Two: Mod},
}

// Mod is the intrinsic mod, math.Mod's value bit for bit: where both operands
// are integers below 2^53 in magnitude and y ≠ 0, the exact remainder of an
// integer division, signed like x (a zero too); anything else goes to
// math.Mod, whose generic loop costs tens of times more.
func Mod(x, y float64) float64 {
	if x > -MaxExact && x < MaxExact && y > -MaxExact && y < MaxExact && y != 0 {
		if i, j := int64(x), int64(y); float64(i) == x && float64(j) == y {
			if r := i % j; r != 0 {
				return float64(r)
			}
			return math.Copysign(0, x)
		}
	}
	return math.Mod(x, y)
}

// Fold evaluates e at compile time. leaf resolves a reference to a constant
// (nil: no reference is constant); a reference it declines, a relational or
// logical operator, and a NaN make the whole expression decline.
func Fold(e Expr, leaf func(*Ref) (Const, bool)) (Const, bool) {
	switch x := e.(type) {
	case *IntConst:
		return Int(x.Value), true
	case *RealConst:
		return typed(x.Value, false)
	case *Ref:
		if leaf != nil {
			return leaf(x)
		}
	case *UnaryMinus:
		if c, ok := Fold(x.X, leaf); ok {
			return typed(-c.Float(), c.IsInt)
		}
	case *BinOp:
		if int(x.Op) >= len(Arith) {
			break
		}
		if l, ok := Fold(x.L, leaf); ok {
			if r, ok := Fold(x.R, leaf); ok {
				return typed(Arith[x.Op](l.Float(), r.Float()), l.IsInt && r.IsInt)
			}
		}
	case *Call:
		in, known := Intrinsics[x.Name]
		if !known {
			break
		}
		args, isInt := make([]float64, len(x.Args)), true
		for i, a := range x.Args {
			c, ok := Fold(a, leaf)
			if !ok {
				return Const{}, false
			}
			args[i], isInt = c.Float(), isInt && c.IsInt
		}
		return typed(in.Value(args), isInt)
	}
	return Const{}, false
}

// Rewrite hands every reference of e — subscripts and all, not descended
// into — to ref, whose result takes its place, and rebuilds bottom-up the
// operators and calls above a reference ref replaced. A node under which
// nothing changed is shared, literals included, so no caller mutates an
// operator or a call of the result. Rewrite never copies a reference on its
// own: the identity of an *ast.Ref is how the analyses find the ir.Ref that
// stands for it, so whether to keep, mutate or replace the node is the
// callback's decision.
func Rewrite(e Expr, ref func(*Ref) Expr) Expr {
	switch x := e.(type) {
	case *Ref:
		return ref(x)
	case *BinOp:
		if l, r := Rewrite(x.L, ref), Rewrite(x.R, ref); l != x.L || r != x.R {
			return &BinOp{Op: x.Op, L: l, R: r}
		}
	case *UnaryMinus:
		if y := Rewrite(x.X, ref); y != x.X {
			return &UnaryMinus{X: y}
		}
	case *Not:
		if y := Rewrite(x.X, ref); y != x.X {
			return &Not{X: y}
		}
	case *Call:
		for i, a := range x.Args {
			if y := Rewrite(a, ref); y != a {
				c := &Call{Name: x.Name, Args: slices.Clone(x.Args)}
				c.Args[i] = y
				for j := i + 1; j < len(c.Args); j++ {
					c.Args[j] = Rewrite(c.Args[j], ref)
				}
				return c
			}
		}
	}
	return e
}
