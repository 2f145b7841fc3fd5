package ast

import "math"

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

// arith is the arithmetic operator table; the relational and logical
// operators are not folded.
var arith = [...]func(a, b float64) float64{
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
	// Value computes one application, as the run time does.
	Value func(args []float64) float64
}

// Intrinsics is the table of recognized intrinsic functions: a new intrinsic
// is one entry here (the run time may add a specialised closure for speed,
// see internal/eval/lower.go).
var Intrinsics = map[string]Intrinsic{
	"abs":  {1, 1, func(a []float64) float64 { return math.Abs(a[0]) }},
	"sqrt": {1, 8, func(a []float64) float64 { return math.Sqrt(a[0]) }},
	"exp":  {1, 8, func(a []float64) float64 { return math.Exp(a[0]) }},
	"max":  {-1, 1, func(a []float64) float64 { return pick(a, func(x, best float64) bool { return x > best }) }},
	"min":  {-1, 1, func(a []float64) float64 { return pick(a, func(x, best float64) bool { return x < best }) }},
	"mod":  {2, 1, func(a []float64) float64 { return math.Mod(a[0], a[1]) }},
}

// pick returns the first argument no later one beats.
func pick(args []float64, beats func(x, best float64) bool) float64 {
	best := args[0]
	for _, x := range args[1:] {
		if beats(x, best) {
			best = x
		}
	}
	return best
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
		if int(x.Op) >= len(arith) {
			break
		}
		if l, ok := Fold(x.L, leaf); ok {
			if r, ok := Fold(x.R, leaf); ok {
				return typed(arith[x.Op](l.Float(), r.Float()), l.IsInt && r.IsInt)
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

// Rewrite rebuilds the operators and calls of e bottom-up and hands every
// reference — subscripts and all, not descended into — to ref, whose result
// takes its place. Literals are shared. Rewrite never copies a reference on
// its own: the identity of an *ast.Ref is how the analyses find the ir.Ref
// that stands for it, so whether to keep, mutate or replace the node is the
// callback's decision.
func Rewrite(e Expr, ref func(*Ref) Expr) Expr {
	switch x := e.(type) {
	case *Ref:
		return ref(x)
	case *BinOp:
		return &BinOp{Op: x.Op, L: Rewrite(x.L, ref), R: Rewrite(x.R, ref)}
	case *UnaryMinus:
		return &UnaryMinus{X: Rewrite(x.X, ref)}
	case *Not:
		return &Not{X: Rewrite(x.X, ref)}
	case *Call:
		c := &Call{Name: x.Name, Args: make([]Expr, len(x.Args))}
		for i, a := range x.Args {
			c.Args[i] = Rewrite(a, ref)
		}
		return c
	}
	return e
}
