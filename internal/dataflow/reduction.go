package dataflow

import (
	"math"
	"slices"

	"phpf/internal/ast"
	"phpf/internal/ir"
	"phpf/internal/ssa"
)

// ReductionOp identifies the combining operation of a reduction.
type ReductionOp int

const (
	RedSum ReductionOp = iota
	RedProd
	RedMax
	RedMin
	// RedMaxLoc marks a companion "location" variable updated alongside a
	// conditional max/min reduction (e.g. the pivot row in DGEFA).
	RedMaxLoc
)

// redNames names the operations; a max or min update is a call of the
// intrinsic of that name.
var redNames = [...]string{RedSum: "sum", RedProd: "prod", RedMax: "max", RedMin: "min", RedMaxLoc: "maxloc"}

func (o ReductionOp) String() string {
	if o < 0 || int(o) >= len(redNames) {
		return "?"
	}
	return redNames[o]
}

// matchUpdate matches the right-hand side of a commutative update
// acc = acc op e — the one place the operator set is spelled out:
//
//	acc + e, e + acc, acc * e, e * acc, acc - e (a sum of -e: negate),
//	max(acc, e), min(acc, e)
//
// isSelf recognizes the accumulator's own reference. data is the contribution
// e, nil when rhs is no such update. max(e, acc) and min(e, acc) are none: a
// NaN e wins its own iteration there, and the next e replaces it, an order
// that a fold, which keeps its partial, does not reproduce.
func matchUpdate(rhs ast.Expr, isSelf func(ast.Expr) bool) (op ReductionOp, data ast.Expr, negate bool) {
	var l, r ast.Expr
	switch x := rhs.(type) {
	case *ast.BinOp:
		switch x.Op {
		case ast.Add:
			op = RedSum
		case ast.Mul:
			op = RedProd
		case ast.Sub:
			op, negate = RedSum, true
		default:
			return
		}
		l, r = x.L, x.R
	case *ast.Call:
		op = ReductionOp(slices.Index(redNames[:], x.Name))
		if (op != RedMax && op != RedMin) || len(x.Args) != 2 {
			return 0, nil, false
		}
		l, r = x.Args[0], x.Args[1]
	default:
		return
	}
	switch {
	case isSelf(l):
		return op, r, negate
	case op < RedMax && !negate && isSelf(r):
		return op, l, false
	}
	return op, nil, false
}

// scalarUse returns the use on st that e is, when e is a plain reference to
// scalar v (nil otherwise).
func scalarUse(st *ir.Stmt, v *ir.Var, e ast.Expr) *ir.Ref {
	r, ok := e.(*ast.Ref)
	if !ok || len(r.Subs) > 0 || r.Name != v.Name {
		return nil
	}
	for _, u := range st.Uses {
		if u.Ast == r {
			return u
		}
	}
	return nil
}

// Identity returns the operation's neutral element — the value a private
// partial accumulator starts from (and is reset to after every merge).
func (o ReductionOp) Identity() float64 {
	switch o {
	case RedProd:
		return 1
	case RedMax:
		return math.Inf(-1)
	case RedMin:
		return math.Inf(1)
	}
	return 0
}

// Fold combines two values under the operation, b the later: a max or min is
// the intrinsic's element function, as the sequential update max(acc, e)
// computes it — a strictly greater (smaller) b wins, and a tie or a NaN b
// keeps a. Folding the identity is a no-op, so partials that never
// accumulated merge for free.
func (o ReductionOp) Fold(a, b float64) float64 {
	switch o {
	case RedProd:
		return a * b
	case RedMax, RedMin:
		return picks[o-RedMax](a, b)
	}
	return a + b
}

var picks = [...]func(a, b float64) float64{ast.Intrinsics[RedMax.String()].Two, ast.Intrinsics[RedMin.String()].Two}

// Reduction describes a scalar reduction carried by a loop.
type Reduction struct {
	Var  *ir.Var
	Op   ReductionOp
	Loop *ir.Loop // the innermost loop carrying the reduction
	// Loops lists every enclosing loop around whose back edge the
	// accumulator flows (innermost first); the last entry is the outermost
	// carried loop, after which the global combine happens.
	Loops []*ir.Loop
	Stmt  *ir.Stmt // the updating assignment

	// DataRef is the partitioned array reference combined into the
	// accumulator in each iteration — "the special array reference whose
	// ownership governs the partitioning of the partial reduction
	// operation" (paper §2.3). Nil when the reduced data is scalar.
	DataRef *ir.Ref

	// Data is the contribution expression e of the update (s = s ⊕ e):
	// the part a privatized runtime evaluates and folds into a private
	// partial without reading the accumulator. Nil for conditional
	// (maxloc-style) updates, which have no extractable contribution.
	Data ast.Expr
	// Negate marks the s = s - e form: the contribution folds in as -e
	// under a sum.
	Negate bool

	// Companion links a maxloc location variable to its max reduction.
	Companion *Reduction
}

// IsArray reports whether the reduction target is an array updated
// elementwise (a commutative update like h(e) = h(e) + 1) rather than a
// scalar accumulator.
func (r *Reduction) IsArray() bool { return r.Var.IsArray() }

// FindReductions recognizes scalar reductions:
//
//	s = s + e, s = s * e, s = max(s, e), s = min(s, e)
//
// and the conditional form used for pivoting:
//
//	if (e > t) then      (or >=, or t < e, ...)
//	  t = e
//	  l = i              (companion location variables)
//	end if
//
// The accumulator's value must flow around the loop only through the
// updating statement (verified via SSA).
func FindReductions(p *ir.Program, s *ssa.SSA) []*Reduction {
	var out []*Reduction
	seen := map[*ir.Stmt]bool{}
	for _, st := range p.Stmts {
		if seen[st] || st.Kind != ir.SAssign || st.Loop == nil {
			continue
		}
		if r := recognizePlainReduction(st, s); r != nil {
			out = append(out, r)
			seen[st] = true
			continue
		}
		if r := recognizeArrayReduction(st, p); r != nil {
			out = append(out, r)
			seen[st] = true
			continue
		}
	}
	// Conditional max/maxloc: scan IF statements.
	for _, st := range p.Stmts {
		if st.Kind != ir.SIf || st.Loop == nil || st.IfNode == nil {
			continue
		}
		rs := recognizeConditionalMax(st, s, seen)
		out = append(out, rs...)
	}
	return out
}

// recognizePlainReduction matches s = s op e forms.
func recognizePlainReduction(st *ir.Stmt, s *ssa.SSA) *Reduction {
	v := st.Lhs.Var
	if v.IsArray() || len(st.EnclosingIfs) > 0 {
		return nil
	}
	var selfUse *ir.Ref
	op, dataExpr, negate := matchUpdate(st.Rhs, func(e ast.Expr) bool {
		selfUse = scalarUse(st, v, e)
		return selfUse != nil
	})
	if dataExpr == nil {
		return nil
	}
	// The data expression must not read the accumulator.
	for _, r := range ast.Refs(dataExpr) {
		if r.Name == v.Name {
			return nil
		}
	}
	loops := carrierLoops(s.DefOf[st], st.Loop, selfUse, s)
	if len(loops) == 0 {
		return nil
	}
	return &Reduction{
		Var:     v,
		Op:      op,
		Loop:    loops[0],
		Loops:   loops,
		Stmt:    st,
		DataRef: partitionableDataRef(st, dataExpr),
		Data:    dataExpr,
		Negate:  negate,
	}
}

// recognizeArrayReduction matches elementwise commutative updates of an
// array:
//
//	a(subs) = a(subs) + e, a(subs) = a(subs) * e,
//	a(subs) = max(a(subs), e), ...
//
// with syntactically identical subscripts on both sides (data-dependent
// subscripts like h(key(i)) included — the histogram pattern) and a
// contribution e that never reads the array. The carrier loops are the
// enclosing loops in which no other statement touches the array, so
// accumulating into private copies and merging once at the outermost
// carrier's exit is semantics-preserving. SSA covers scalars only, so the
// carrier test here is the syntactic exclusivity scan.
func recognizeArrayReduction(st *ir.Stmt, p *ir.Program) *Reduction {
	v := st.Lhs.Var
	if !v.IsArray() || len(st.EnclosingIfs) > 0 || len(st.Lhs.Subs) == 0 {
		return nil
	}
	self := ast.ExprString(st.Lhs.Ast)
	op, dataExpr, negate := matchUpdate(st.Rhs, func(e ast.Expr) bool {
		r, ok := e.(*ast.Ref)
		return ok && r.Name == v.Name && ast.ExprString(r) == self
	})
	if dataExpr == nil {
		return nil
	}
	// The contribution must not read the array, and the array must appear in
	// the statement exactly twice (the update pair): a read in a subscript or
	// the contribution would see stale private values.
	selfUses := 0
	for _, u := range st.Uses {
		if u.Var == v {
			selfUses++
		}
	}
	if selfUses != 1 {
		return nil
	}
	// Carrier loops: climb while the enclosing loop contains no other
	// statement touching the array. A loop whose index appears affinely in
	// some subscript of the update target writes each element at most once
	// per iteration (affine subscripts are injective) — it is an ordinary
	// elementwise traversal in that loop, not a commutative accumulation, so
	// it cannot carry the reduction. It is skipped, not a barrier: an outer
	// loop still carries h(i)-style updates repeated across its iterations
	// (r(j) = r(j) + x(i,j)*y(i,j) is carried by the i-loop alone).
	// Data-dependent subscripts like h(key(i)) stay carried by the i-loop:
	// many iterations may hit the same element, which is exactly the
	// histogram pattern privatization exists for.
	var loops []*ir.Loop
	for l := st.Loop; l != nil; l = l.Parent {
		if !arrayExclusiveIn(p, v, st, l) {
			break
		}
		if slices.ContainsFunc(st.Lhs.Subs, func(sub ir.Affine) bool { return sub.CoefOf(l) != 0 }) {
			continue
		}
		loops = append(loops, l)
	}
	if len(loops) == 0 {
		return nil
	}
	return &Reduction{
		Var:     v,
		Op:      op,
		Loop:    loops[0],
		Loops:   loops,
		Stmt:    st,
		DataRef: updateDataRef(st),
		Data:    dataExpr,
		Negate:  negate,
	}
}

// arrayExclusiveIn reports whether the update statement is the only
// statement inside loop l that references array v.
func arrayExclusiveIn(p *ir.Program, v *ir.Var, st *ir.Stmt, l *ir.Loop) bool {
	for _, st2 := range p.Stmts {
		if st2 == st || !ir.Encloses(l, st2.Loop) {
			continue
		}
		if st2.Lhs != nil && st2.Lhs.Var == v {
			return false
		}
		for _, u := range st2.Uses {
			if u.Var == v {
				return false
			}
		}
	}
	return true
}

// updateDataRef picks the array reference whose owner executes (and
// accumulates) each instance of a privatized elementwise update: the first
// subscripted read of a different array anywhere in the statement — the
// subscript read key(i) for a histogram h(key(i)), the operand x(i,j) for a
// dot-product sweep r(j) = r(j) + x(i,j)*y(i,j). Nil when every input is
// scalar (the update then accumulates on processor 0's partial).
func updateDataRef(st *ir.Stmt) *ir.Ref {
	for _, u := range st.Uses {
		if u.Var != st.Lhs.Var && u.Var.IsArray() && len(u.Subs) > 0 {
			return u
		}
	}
	return nil
}

// carrierLoops verifies the self use is fed by def around loop back edges,
// and returns every such loop enclosing from (the loop the use sits in),
// innermost first.
func carrierLoops(def *ssa.Value, from *ir.Loop, selfUse *ir.Ref, s *ssa.SSA) []*ir.Loop {
	if def == nil {
		return nil
	}
	for _, ru := range s.ReachedUses(def) {
		if ru.Ref != selfUse {
			continue
		}
		var out []*ir.Loop
		for l := from; l != nil; l = l.Parent {
			if ru.CrossesBackOf[l] {
				out = append(out, l)
			}
		}
		return out
	}
	return nil
}

// partitionableDataRef picks the array reference in the data expression that
// will govern the partial reduction's partitioning (the first partitioned
// array read; distribution is resolved later, so we return the first array
// reference and let the mapping phase check its distribution).
func partitionableDataRef(st *ir.Stmt, dataExpr ast.Expr) *ir.Ref {
	for _, ar := range ast.Refs(dataExpr) {
		if len(ar.Subs) == 0 {
			continue
		}
		for _, u := range st.Uses {
			if u.Ast == ar {
				return u
			}
		}
	}
	return nil
}

// recognizeConditionalMax matches the pivoting pattern:
//
//	if (e REL t) then { t = e; l1 = i1; ... }   with no ELSE branch
//
// where REL compares the candidate against the accumulator t. t becomes a
// max/min reduction; the other assignments in the branch become maxloc
// companions.
func recognizeConditionalMax(ifStmt *ir.Stmt, s *ssa.SSA, seen map[*ir.Stmt]bool) []*Reduction {
	ifn := ifStmt.IfNode
	if len(ifn.Else) != 0 {
		return nil
	}
	cond, ok := ifStmt.Cond.(*ast.BinOp)
	if !ok || !cond.Op.IsRelational() || cond.Op == ast.OpEq || cond.Op == ast.OpNe {
		return nil
	}
	// Collect the simple assignments of the branch.
	var assigns []*ir.Stmt
	for _, n := range ifn.Then {
		st, ok := n.(*ir.Stmt)
		if !ok || st.Kind != ir.SAssign || st.Lhs.Var.IsArray() {
			return nil
		}
		assigns = append(assigns, st)
	}
	if len(assigns) == 0 {
		return nil
	}
	// One side of the condition must be a scalar assigned in the branch
	// (the accumulator), the other the candidate expression.
	var accStmt *ir.Stmt
	var candidate ast.Expr
	var op ReductionOp
	matchAcc := func(e ast.Expr) *ir.Stmt {
		r, ok := e.(*ast.Ref)
		if !ok || len(r.Subs) > 0 {
			return nil
		}
		for _, a := range assigns {
			if a.Lhs.Var.Name == r.Name {
				return a
			}
		}
		return nil
	}
	if acc := matchAcc(cond.R); acc != nil {
		// e REL t: for > or >= this is a max update.
		accStmt, candidate = acc, cond.L
		if cond.Op == ast.OpGt || cond.Op == ast.OpGe {
			op = RedMax
		} else {
			op = RedMin
		}
	} else if acc := matchAcc(cond.L); acc != nil {
		// t REL e: for < or <= this is a max update.
		accStmt, candidate = acc, cond.R
		if cond.Op == ast.OpLt || cond.Op == ast.OpLe {
			op = RedMax
		} else {
			op = RedMin
		}
	} else {
		return nil
	}
	// The accumulator must be assigned the candidate expression (same
	// shape), i.e. t = e.
	if ast.ExprString(accStmt.Rhs) != ast.ExprString(candidate) {
		return nil
	}
	// Verify the accumulator is loop-carried through this update.
	var selfUse *ir.Ref
	for _, u := range ifStmt.Uses {
		if u.Var == accStmt.Lhs.Var {
			selfUse = u
		}
	}
	if selfUse == nil {
		return nil
	}
	loops := carrierLoops(s.DefOf[accStmt], ifStmt.Loop, selfUse, s)
	if len(loops) == 0 {
		return nil
	}

	dataRef := partitionableDataRef(ifStmt, candidate)
	main := &Reduction{
		Var:     accStmt.Lhs.Var,
		Op:      op,
		Loop:    loops[0],
		Loops:   loops,
		Stmt:    accStmt,
		DataRef: dataRef,
	}
	out := []*Reduction{main}
	seen[accStmt] = true
	for _, a := range assigns {
		if a == accStmt {
			continue
		}
		companion := &Reduction{
			Var:       a.Lhs.Var,
			Op:        RedMaxLoc,
			Loop:      loops[0],
			Loops:     loops,
			Stmt:      a,
			DataRef:   dataRef,
			Companion: main,
		}
		seen[a] = true
		out = append(out, companion)
	}
	return out
}
