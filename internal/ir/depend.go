package ir

// MayOverlapAcross reports whether a definition reference and a use
// reference of the same array may touch the same element across any pair of
// iterations of loop l (and the loops it contains). It is the dependence
// test behind message vectorization: communication for `use` can be hoisted
// out of l only if no definition inside l may produce the value read.
//
// The test is a Banerjee-style range test on each dimension (BoundDelta).
// Inconclusive cases report true (may overlap).
func MayOverlapAcross(def, use *Ref, l *Loop) bool {
	if def.Var != use.Var {
		return false
	}
	if !def.Var.IsArray() {
		return true
	}
	// Independent when some dimension's difference def−use is provably
	// nonzero over every pair of instances, loop-carried pairs included: the
	// indices of l and of the loops inside it are independent variables on the
	// two sides, only those of the loops around l are shared.
	for dim := range def.Subs {
		if lo, ok := BoundDelta(use.Subs[dim], def.Subs[dim], l.Parent, true); ok && lo > 0 {
			return false
		}
		if hi, ok := BoundDelta(use.Subs[dim], def.Subs[dim], l.Parent, false); ok && hi < 0 {
			return false
		}
	}
	return true
}

// linKey identifies a symbolic variable in a linear form: a loop's index,
// with a side tag (0 = one variable shared by both forms; 1, 2 = the a-side
// and the b-side instance of it).
type linKey struct {
	loop *Loop
	side int
}

// linForm is c + Σ coef·index(loop,side).
type linForm struct {
	c     int64
	terms map[linKey]int64
}

// add folds scale·a into the linear form. The indices of shared and of the
// loops around it are side-0 variables, every other index is side's.
func (f *linForm) add(a Affine, shared *Loop, side int, scale int64) {
	f.c += a.Const * scale
	for _, t := range a.Terms {
		k := linKey{loop: t.Loop, side: side}
		if Encloses(t.Loop, shared) {
			k.side = 0
		}
		if f.terms[k] += t.Coef * scale; f.terms[k] == 0 {
			delete(f.terms, k)
		}
	}
}

// BoundDelta returns a constant lower (wantMin) or upper bound of b − a over
// the iterations the two forms can be evaluated at — the one substitution of
// loop bounds into an affine form. The indices of shared and of the loops
// around it are one variable on both sides (a and b sit in the same iteration
// of those; nil: of none); every deeper index is a variable of its own per
// side. Each index is replaced by a bound of its loop, innermost first (a
// bound may name outer indices, which keep its side), read in the direction
// the loop runs (Loop.Range). That range is a superset of the values the index takes when the step is not
// ±1 — sound for an inequality claimed of every iteration, hence for
// disjointness, and not for a claim that the range is filled: a coverage test
// must look at the step itself. ok is false when a form or a bound is not
// affine or a step is not a known constant.
func BoundDelta(a, b Affine, shared *Loop, wantMin bool) (int64, bool) {
	if !a.OK || !b.OK {
		return 0, false
	}
	f := &linForm{terms: map[linKey]int64{}}
	f.add(a, shared, 1, -1)
	f.add(b, shared, 2, 1)
	for len(f.terms) > 0 {
		// Pick the deepest-nested variable: its bounds may reference outer
		// indices, which are substituted later.
		var pick linKey
		for k := range f.terms {
			if pick.loop == nil || k.loop.Level > pick.loop.Level {
				pick = k
			}
		}
		coef := f.terms[pick]
		delete(f.terms, pick)
		// Substitute the low end when (coef>0) == wantMin, else the high one.
		bound, high, ok := pick.loop.Range()
		if (coef > 0) != wantMin {
			bound = high
		}
		if !ok || !bound.OK {
			return 0, false
		}
		f.add(bound, shared, pick.side, coef)
	}
	return f.c, true
}
