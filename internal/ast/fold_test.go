package ast

import (
	"math"
	"math/rand/v2"
	"testing"
)

func lit(v int64) Expr              { return &IntConst{Value: v} }
func bin(op Op, l, r Expr) Expr     { return &BinOp{Op: op, L: l, R: r} }
func call(n string, a ...Expr) Expr { return &Call{Name: n, Args: a} }

// TestFoldFollowsTheRunTime pins the fold's typing: integers stay integers
// while every intermediate is one the machine holds exactly, everything else
// is the float64 the run time computes, and what cannot be known declines.
func TestFoldFollowsTheRunTime(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		e     Expr
		want  float64
		isInt bool
	}{
		{bin(Div, lit(7), lit(2)), 3.5, false},
		{bin(Div, lit(8), lit(2)), 4, true},
		{bin(Div, lit(1), lit(0)), math.Inf(1), false},
		{bin(Sub, lit(0), bin(Div, lit(7), lit(2))), -3.5, false},
		{bin(Mul, lit(3), &RealConst{Value: 2}), 6, false},
		{&UnaryMinus{X: lit(3)}, -3, true},
		{&UnaryMinus{X: lit(0)}, negZero, false},
		{bin(Mul, lit(0), lit(-3)), negZero, false},
		{call("mod", lit(-7), lit(2)), -1, true},
		{call("mod", lit(-4), lit(2)), negZero, false},
		{call("max", lit(1), lit(2), lit(3)), 3, true},
		{call("min", lit(1), &RealConst{Value: 0.5}), 0.5, false},
		{call("abs", lit(-3)), 3, true},
		{call("sqrt", lit(2)), math.Sqrt(2), false},
		// Beyond ±2^53 a literal is the float64 the run time converts it to.
		{bin(Sub, lit(9007199254740993), lit(9007199254740992)), 0, false},
		{bin(Mul, bin(Mul, lit(3000000000), lit(3000000000)), lit(3)), 2.7e19, false},
		{bin(Add, lit(1<<53-1), lit(-1)), 1<<53 - 2, true},
		{bin(Add, lit(1<<53-1), lit(1)), 1 << 53, false},
	} {
		got, ok := Fold(c.e, nil)
		if !ok || math.Float64bits(got.Float()) != math.Float64bits(c.want) || got.IsInt != c.isInt {
			t.Errorf("Fold(%s) = %+v ok=%v, want %v (integer: %v)", ExprString(c.e), got, ok, c.want, c.isInt)
		}
	}
	for _, e := range []Expr{
		&Ref{Name: "x"},
		bin(OpLt, lit(1), lit(2)),
		&Not{X: lit(1)},
		bin(Div, &RealConst{}, &RealConst{}), // NaN
		call("nosuch", lit(1)),
	} {
		if got, ok := Fold(e, nil); ok {
			t.Errorf("Fold(%s) = %+v, want it declined", ExprString(e), got)
		}
	}
	n := func(r *Ref) (Const, bool) { return Int(7), r.Name == "n" }
	if got, ok := Fold(bin(Add, &Ref{Name: "n"}, lit(1)), n); !ok || !got.IsInt || got.I != 8 {
		t.Errorf("n + 1 with n = 7 folds to %+v ok=%v", got, ok)
	}
	if _, ok := Fold(bin(Add, &Ref{Name: "m"}, lit(1)), n); ok {
		t.Error("a reference the leaf declines must decline the expression")
	}
}

func TestConstRoundAndEqual(t *testing.T) {
	for _, c := range []struct{ in, want float64 }{{2.6, 3}, {3.5, 4}, {-3.5, -4}, {2.4, 2}} {
		if got := (Const{F: c.in}).Round(); !got.IsInt || got.Float() != c.want {
			t.Errorf("Round(%v) = %+v, want integer %v", c.in, got, c.want)
		}
	}
	if got := (Const{F: math.Inf(1)}).Round(); got.IsInt || !math.IsInf(got.F, 1) {
		t.Errorf("Round(+Inf) = %+v, want it to stay +Inf", got)
	}
	if !Int(3).Equal(Const{F: 3}) {
		t.Error("integer 3 and real 3.0 are the same run-time value")
	}
	if (Const{F: 0}).Equal(Const{F: math.Copysign(0, -1)}) {
		t.Error("0.0 and -0.0 differ in their bits")
	}
}

// TestRewriteHandsOverReferences: Rewrite never copies or descends into a
// reference — what the callback returns takes the node's place, so a callback
// that returns its argument preserves the *Ref identity the analyses key on —
// and rebuilds only the operators and calls above a replaced reference,
// sharing every node under which nothing changed.
func TestRewriteHandsOverReferences(t *testing.T) {
	i := &Ref{Name: "i"}
	a := &Ref{Name: "a", Subs: []Expr{i}}
	x := &Ref{Name: "x"}
	not2 := &Not{X: lit(2)}
	e := bin(Add, a, call("max", &UnaryMinus{X: x}, not2))

	var seen []*Ref
	out := Rewrite(e, func(r *Ref) Expr {
		seen = append(seen, r)
		return r
	})
	if len(seen) != 2 || seen[0] != a || seen[1] != x {
		t.Fatalf("callback saw %v, want a(i) then x (subscripts are the callback's to visit)", seen)
	}
	if out != e {
		t.Errorf("Rewrite = %s, want %s itself: nothing changed", ExprString(out), ExprString(e))
	}
	sub := Rewrite(e, func(r *Ref) Expr {
		if r == x {
			return lit(5)
		}
		return r
	})
	if got := ExprString(sub); got != "(a(i) + max((-5),(not 2)))" {
		t.Errorf("substituted = %s", got)
	}
	if ExprString(e) != "(a(i) + max((-x),(not 2)))" {
		t.Errorf("the substitution changed its input: %s", ExprString(e))
	}
	b := sub.(*BinOp)
	if b == e || b.L != Expr(a) {
		t.Error("the sum was shared or the reference node copied")
	}
	if c := b.R.(*Call); c == e.(*BinOp).R || c.Args[1] != Expr(not2) {
		t.Error("the call above the substitution was shared, or the unchanged (not 2) copied")
	}
	if Rewrite(nil, nil) != nil {
		t.Error("Rewrite(nil) must stay nil")
	}
}

// TestIntrinsicsTable: one entry per intrinsic carries arity, flop weight and
// value.
func TestIntrinsicsTable(t *testing.T) {
	for name, want := range map[string]struct{ arity, flops int }{
		"abs": {1, 1}, "sqrt": {1, 8}, "exp": {1, 8}, "max": {-1, 1}, "min": {-1, 1}, "mod": {2, 1},
	} {
		in, ok := Intrinsics[name]
		if !ok || in.Arity != want.arity || in.Flops != want.flops || (in.One == nil) == (in.Two == nil) || (in.One != nil) != (want.arity == 1) {
			t.Errorf("Intrinsics[%q] = %+v (present: %v), want arity %d, flops %d", name, in, ok, want.arity, want.flops)
		}
	}
	if len(Intrinsics) != 6 {
		t.Errorf("%d intrinsics, want 6", len(Intrinsics))
	}
	// max keeps the first of equals and ignores a NaN that is not first, as
	// the run time's comparison does.
	nan := math.NaN()
	if got := Intrinsics["max"].Value([]float64{1, nan, 3, 2}); got != 3 {
		t.Errorf("max(1, NaN, 3, 2) = %v, want 3", got)
	}
	if got := Intrinsics["min"].Value([]float64{nan, 1}); !math.IsNaN(got) {
		t.Errorf("min(NaN, 1) = %v, want NaN", got)
	}
}

// TestModMatchesMathMod: Mod is math.Mod bit for bit — on the integer path
// (integral operands below 2^53, a zero result signed like x) and on every
// operand it leaves to math.Mod: ±0, NaN, ±Inf, y = ±0, magnitudes from 2^53
// up, MinInt64, fractions — and on random integers of every size.
func TestModMatchesMathMod(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	edge := []float64{0, math.Copysign(0, -1), nan, inf, -inf, 1, -1, 2, -2, 3, -7, 7, 13, -13, 0.5, -2.5, 1e-300,
		MaxExact - 1, -(MaxExact - 1), MaxExact, -MaxExact, MaxExact + 2, 1 << 62, math.MinInt64, -math.MinInt64,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	check := func(x, y float64) {
		t.Helper()
		if got, want := Mod(x, y), math.Mod(x, y); math.Float64bits(got) != math.Float64bits(want) &&
			!(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("Mod(%v, %v) = %v (%#x), math.Mod %v (%#x)", x, y, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, x := range edge {
		for _, y := range edge {
			check(x, y)
		}
	}
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 200000; i++ {
		shift := r.IntN(64)
		x := float64(r.Int64() >> shift)
		y := float64(r.Int64() >> r.IntN(64))
		if r.IntN(2) == 0 {
			x = -x
		}
		if r.IntN(2) == 0 {
			y = -y
		}
		check(x, y)
		check(x, float64(r.IntN(100)-50))
	}
}
