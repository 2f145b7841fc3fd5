// Swept runs: the value semantics of a quiet owner run, statement by
// statement over the whole run instead of iteration by iteration (DESIGN.md
// §11). The run kernel of a loop is its body as a flat list of register
// operations, built beside the closures (lower.go) from the same trees and the
// same element functions; the closures stay the definition of an expression
// everywhere else, and are what the tests hold the kernel to.
package eval

import (
	"math"

	"phpf/internal/ast"
	"phpf/internal/ir"
)

// strip is the longest a register gets: a swept run is charged and evaluated
// this many iterations at a time, so the register file is at most strip ×
// code.nreg values however long the run (State.registers).
const strip = 128

type kopKind uint8

const (
	kConst  kopKind = iota // dst = val
	kScalar                // dst = the scalar in slot, which the body does not write
	kIndex                 // dst = the loop index in slot: the run's own advances, an outer one stands
	kLoad                  // dst = the element of access pos (of the array in slot)
	kNeg                   // dst = -a
	kAdd                   // dst = a + b
	kSub
	kMul
	kDiv
	kOne   // dst = one(a)
	kTwo   // dst = two(a, b)
	kRound // dst = a rounded: the store to an integer scalar
	kCopy  // dst = a
	kStore // the element of access pos = a
	kLast  // the scalar in slot = a's last element: what the run leaves in it
	kCarry // the scalar in slot = its value ⊕ a, in iteration order; dst = each value
)

// kop is one operation of a run kernel. dst, a and b number registers: a
// scalar the body writes has one of its own for the whole body, an
// intermediate value the next free one above those.
type kop struct {
	kind      kopKind
	dst, a, b int32
	slot, pos int32
	stmt      int32 // kStore, kCarry: the statement's ID
	val       float64
	one       func(a float64) float64
	two       func(a, b float64) float64
	right     bool // kCarry: the scalar is two's right operand
}

// kpair is a pair of a kernel's accesses of one array, at least one of them a
// store, that sweepable tests: their positions in code.arrs, first the one
// the kernel meets first.
type kpair struct{ first, second int32 }

// kscalar is a scalar the body writes, written by writes statements, first the
// first: its register is its position in the builder's list.
type kscalar struct{ slot, first, writes int32 }

// kernel builds the run kernel of run-lowered loop l (lc.kern; empty when the
// body has none). It exists when no statement is an elementwise reduction
// update, every array access of the body is enlisted — so a run that hoisted
// the guards knows every address — and every read of a scalar the body writes
// follows a write by an earlier statement of the body — the scalar is private
// to an iteration, one register — or is the carried operand of its one write,
// s = s ⊕ e (a kCarry, which a scalar reduction update is too). Everything
// else an expression can hold — a data-dependent subscript, an intrinsic
// applied in a shape without an element function, an unknown name — is what
// can fail at run time, and has no operation: a kernel cannot park an error on
// the State.
func (lw *lowerer) kernel(l *ir.Loop) {
	lc := &lw.c.loops[l.ID]
	stmts := lw.c.stmts[lc.body.lo : lc.body.lo+lc.body.n]
	kb := kbuilder{lw: lw, scalars: lw.kscalars[:0],
		arrs: lw.c.arrs[lc.arrs.lo : lc.arrs.lo+lc.arrs.n]}
	for i := range stmts {
		switch r := kb.written(stmts[i].slot); {
		case stmts[i].red != nil && stmts[i].red.def != nil:
			return
		case stmts[i].def != nil:
		case r < 0:
			kb.scalars = append(kb.scalars, kscalar{slot: stmts[i].slot, first: int32(i), writes: 1})
		default:
			kb.scalars[r].writes++
		}
	}
	lw.kscalars = kb.scalars
	lo := len(lw.c.kops)
	kb.nreg = int32(len(kb.scalars))
	ok := true
	for i := 0; i < len(stmts) && ok; i++ {
		ok = kb.stmt(&stmts[i], lw.prog.Stmts[int(lc.body.lo)+i], int32(i))
	}
	if !ok || len(kb.arrs) != 0 {
		lw.c.kops = lw.c.kops[:lo]
		return
	}
	for r, ks := range kb.scalars {
		lw.c.kops = append(lw.c.kops, kop{kind: kLast, a: int32(r), slot: ks.slot})
	}
	lc.kern = span{lo: int32(lo), n: int32(len(lw.c.kops) - lo)}
	lw.c.nreg = max(lw.c.nreg, kb.nreg)
	// The pairs: a store and every load of its array, and every two stores of
	// it once.
	ops, pairs := lw.c.kops[lo:], len(lw.c.kpairs)
	for j := range ops {
		for i := range ops {
			if ops[j].kind == kStore && i != j && ops[i].slot == ops[j].slot && (ops[i].kind == kLoad || ops[i].kind == kStore && i < j) {
				lw.c.kpairs = append(lw.c.kpairs, kpair{ops[min(i, j)].pos, ops[max(i, j)].pos})
			}
		}
	}
	lc.pairs = span{lo: int32(pairs), n: int32(len(lw.c.kpairs) - pairs)}
}

// kbuilder emits one loop's kernel.
type kbuilder struct {
	lw      *lowerer
	scalars []kscalar  // the scalars the body writes; a scalar's register is its position
	arrs    []*arrCode // the body's enlisted accesses not yet met, in the order lowering met them
	cur     int32      // the statement being emitted
	nreg    int32      // registers in use
}

func (kb *kbuilder) written(slot int32) int32 {
	for r, ks := range kb.scalars {
		if ks.slot == slot {
			return int32(r)
		}
	}
	return -1
}

func (kb *kbuilder) emit(op kop) int32 {
	kb.nreg = max(kb.nreg, op.dst+1)
	kb.lw.c.kops = append(kb.lw.c.kops, op)
	return op.dst
}

// access takes the next enlisted access, which must be the one the scalar
// lowering built for x: a reference with a subscript read from memory is not
// enlisted itself, though what it holds is.
func (kb *kbuilder) access(x *ast.Ref) (*arrCode, bool) {
	if len(kb.arrs) == 0 || kb.arrs[0].ref != x {
		return nil, false
	}
	ac := kb.arrs[0]
	kb.arrs = kb.arrs[1:]
	return ac, true
}

// stmt emits statement i of the body: its right-hand side, then the store.
func (kb *kbuilder) stmt(sc *stmtCode, st *ir.Stmt, i int32) bool {
	kb.cur = i
	temp := int32(len(kb.scalars))
	if reg := kb.written(sc.slot); sc.def == nil && kb.scalars[reg].writes == 1 {
		if op, e, ok := carried(st.Rhs, st.Lhs.Var.Name); ok {
			pending := kb.arrs
			op.a, ok = kb.expr(e, temp)
			if sc.red != nil {
				// The contribution is lowered twice, in the right-hand side and
				// on its own (redCode.data): its accesses are enlisted twice.
				for _, ac := range pending[:len(pending)-len(kb.arrs)] {
					_, again := kb.access(ac.ref)
					ok = ok && again
				}
			}
			op.dst, op.slot, op.stmt = reg, sc.slot, int32(st.ID)
			kb.emit(op)
			return ok
		}
	}
	val, ok := kb.expr(st.Rhs, temp)
	if !ok {
		return false
	}
	if sc.def != nil {
		ac, ok := kb.access(st.Lhs.Ast)
		if ok {
			kb.emit(kop{kind: kStore, a: val, slot: sc.slot, pos: ac.pos, stmt: int32(st.ID)})
		}
		return ok
	}
	switch reg := kb.written(sc.slot); {
	case sc.round:
		kb.emit(kop{kind: kRound, dst: reg, a: val})
	case val >= temp:
		// An intermediate value is the result of the operation emitted last,
		// which can as well leave it in the scalar's register.
		kb.lw.c.kops[len(kb.lw.c.kops)-1].dst = reg
	case val != reg:
		kb.emit(kop{kind: kCopy, dst: reg, a: val})
	}
	return true
}

// expr emits the operations of e, in the closures' order of evaluation, and
// returns the register its value is left in: temp, the lowest one free, or
// the own register of a scalar the body has written. ok is false when e holds
// something no kernel operation computes (kernel then drops what was emitted).
func (kb *kbuilder) expr(e ast.Expr, temp int32) (reg int32, ok bool) {
	switch x := e.(type) {
	case *ast.IntConst:
		return kb.emit(kop{kind: kConst, dst: temp, val: float64(x.Value)}), true
	case *ast.RealConst:
		return kb.emit(kop{kind: kConst, dst: temp, val: x.Value}), true
	case *ast.Ref:
		v := kb.lw.prog.LookupVar(x.Name)
		switch {
		case v == nil:
			return 0, false
		case v.IsLoopIndex:
			return kb.emit(kop{kind: kIndex, dst: temp, slot: v.Slot}), true
		case v.IsArray():
			ac, ok := kb.access(x)
			if !ok {
				return 0, false
			}
			return kb.emit(kop{kind: kLoad, dst: temp, slot: v.Slot, pos: ac.pos}), true
		}
		if r := kb.written(v.Slot); r >= 0 {
			// Written by this statement or a later one first: the value read
			// is the previous iteration's, which a register does not hold.
			return r, kb.scalars[r].first < kb.cur
		}
		return kb.emit(kop{kind: kScalar, dst: temp, slot: v.Slot}), true
	case *ast.UnaryMinus:
		a, ok := kb.expr(x.X, temp)
		return kb.emit(kop{kind: kNeg, dst: temp, a: a}), ok
	case *ast.Not:
		a, ok := kb.expr(x.X, temp)
		return kb.emit(kop{kind: kOne, dst: temp, a: a, one: not}), ok
	case *ast.BinOp:
		switch {
		case x.Op >= ast.Add && x.Op <= ast.Div: // in kAdd's order
			return kb.apply(kop{kind: kAdd + kopKind(x.Op-ast.Add)}, temp, x.L, x.R)
		case x.Op >= ast.OpEq && x.Op <= ast.OpOr:
			return kb.apply(kop{kind: kTwo, two: elemental[x.Op.String()]}, temp, x.L, x.R)
		}
	case *ast.Call:
		switch in := ast.Intrinsics[x.Name]; {
		case len(x.Args) == 1 && in.One != nil:
			a, ok := kb.expr(x.Args[0], temp)
			return kb.emit(kop{kind: kOne, dst: temp, a: a, one: in.One}), ok
		case len(x.Args) >= 2 && in.Two != nil:
			return kb.apply(kop{kind: kTwo, two: in.Two}, temp, x.Args...)
		}
	}
	return 0, false
}

// carried matches s = s ⊕ e and s = e ⊕ s, where ⊕ is + − × ÷ or an intrinsic
// of two arguments and name is the scalar s, and returns e and the kCarry that
// applies ⊕ with s on the side it is written. (An e that reads s has no
// operation: kbuilder.expr reads s only where an earlier statement wrote it.)
func carried(rhs ast.Expr, name string) (op kop, e ast.Expr, ok bool) {
	op.kind = kCarry
	var l, r ast.Expr
	switch x := rhs.(type) {
	case *ast.BinOp:
		if int(x.Op) >= len(ast.Arith) {
			return op, nil, false
		}
		op.two, l, r = ast.Arith[x.Op], x.L, x.R
	case *ast.Call:
		if op.two = ast.Intrinsics[x.Name].Two; op.two == nil || len(x.Args) != 2 {
			return op, nil, false
		}
		l, r = x.Args[0], x.Args[1]
	default:
		return op, nil, false
	}
	self := func(e ast.Expr) bool {
		ref, ok := e.(*ast.Ref)
		return ok && len(ref.Subs) == 0 && ref.Name == name
	}
	if self(l) {
		return op, r, true
	}
	op.right = true
	return op, l, self(r)
}

// apply emits the left fold of a two-operand operation over args, into temp.
func (kb *kbuilder) apply(op kop, temp int32, args ...ast.Expr) (int32, bool) {
	acc, ok := kb.expr(args[0], temp)
	for _, arg := range args[1:] {
		if !ok {
			break
		}
		free := temp
		if acc == temp {
			free++
		}
		if op.b, ok = kb.expr(arg, free); ok {
			op.dst, op.a = temp, acc
			acc = kb.emit(op)
		}
	}
	return acc, ok
}

// sweepable is the dynamic half of a sweep's legality: whether running the
// kernel over the n iterations of the run just opened, statement by
// statement, keeps every dependence between two accesses of an array the way
// iteration by iteration has it. The pairs that could carry one are the
// kernel's (kernel lists them), and the accesses are affine, offs[pos] +
// t·steps[pos] at iteration t, so the answer is closed-form. Take a pair,
// first the one the kernel meets first: the sweep runs every instance of first
// ahead of every instance of second, the loop only those of the same or an
// earlier iteration — so the sweep reverses a dependence iff first touches at
// some iteration an element second touches at an earlier one. With equal
// steps s that is second₀ − first₀ = s·k for a k in [1, n); with unequal ones
// it is refused, conservatively, whenever the two address ranges meet at all.
func (s *State) sweepable(pairs []kpair, n int64) bool {
	for _, p := range pairs {
		f0, fs, s0, ss := s.offs[p.first], s.steps[p.first], s.offs[p.second], s.steps[p.second]
		switch d := s0 - f0; {
		case fs != ss:
			f1, s1 := f0+fs*(n-1), s0+ss*(n-1)
			if min(f0, f1) <= max(s0, s1) && min(s0, s1) <= max(f0, f1) {
				return false
			}
		case fs == 0:
			if d == 0 {
				return false
			}
		case d%fs == 0 && d/fs >= 1 && d/fs < n:
			return false
		}
	}
	return true
}

// sweep executes the n iterations of a quiet owner run whose kernel is ops a
// strip at a time: the strip's iterations are closed first, by one operation
// that charges them in order, then their value semantics run through the
// kernel — over the whole strip at once, statement by statement, where
// sweepable accepted the run (State.swept 1), and one iteration at a time,
// the closures' operations in the closures' order, where it refused. Nothing a
// charge reads is written by a value or the reverse, and a kernel cannot fail,
// so only the backend ending the run could tell the order from the loop's —
// and the iteration that ends it is the last one evaluated, as there.
func (w *walker) sweep(ops []kop, slot int32, step, n, stmts int64) error {
	s := w.s
	for {
		s.registers(min(n, strip))
		m, err := w.sched.ops.Iteration(w.quiet, min(n, strip))
		if s.swept > 0 {
			s.kernel(ops, slot, step, int(m))
			s.advance(slot, step, m-1)
		} else {
			s.ordered(ops, slot, step, m)
		}
		s.computed += m * stmts
		if n -= m; n == 0 || err != nil {
			return err
		}
		s.advance(slot, step, 1)
	}
}

// registers makes the register file hold m values a register: allocated at
// the first sweep as long as its strip, a power of two ≥ 32, and grown at most
// once, to strip.
func (s *State) registers(m int64) {
	if m <= int64(s.width) {
		return
	}
	if s.width = strip; s.regs == nil {
		for s.width = 32; int64(s.width) < m; s.width *= 2 {
		}
	}
	s.regs = make([]float64, int(s.code.nreg)*s.width)
}

// advance moves the owner run in flight k iterations on: the loop index, the
// epoch, the offsets of the hoisted accesses.
func (s *State) advance(slot int32, step, k int64) {
	s.indices[slot] += k * step
	s.epoch += k
	offs := s.offs[s.hoist.lo : s.hoist.lo+s.hoist.n]
	steps := s.steps[s.hoist.lo : s.hoist.lo+s.hoist.n]
	for i := range offs {
		offs[i] += k * steps[i]
	}
}

// stampStrip records the writes of statement stmt to an array written outside the
// owner rule over the m iterations of a strip, the first at offset off.
func (s *State) stampStrip(wrote []int64, off, inc int64, m int, stmt int32) {
	for t := 0; t < m; t++ {
		wrote[off] = stampOf(s.epoch+int64(t), int(stmt))
		off += inc
	}
}

// kernel runs the value semantics of the m iterations from the current one on:
// element t of every register is what the closures compute at iteration t, by
// the same float64 operations on the same operands.
func (s *State) kernel(ops []kop, slot int32, step int64, m int) {
	w := int32(s.width)
	for i := range ops {
		op := &ops[i]
		dst := s.regs[op.dst*w:][:m]
		// Operands as long as dst by construction, which lets the compiler
		// drop the element loops' bounds checks.
		a := s.regs[op.a*w:][:len(dst)]
		b := s.regs[op.b*w:][:len(dst)]
		switch op.kind {
		case kConst:
			for t := range dst {
				dst[t] = op.val
			}
		case kScalar:
			x := s.scalars[op.slot]
			for t := range dst {
				dst[t] = x
			}
		case kIndex:
			x, inc := s.indices[op.slot], int64(0)
			if op.slot == slot {
				inc = step
			}
			for t := range dst {
				dst[t] = float64(x)
				x += inc
			}
		case kLoad:
			arr, off, inc := s.arrays[op.slot], s.offs[op.pos], s.steps[op.pos]
			if inc == 1 {
				copy(dst, arr[off:off+int64(m)])
				break
			}
			for t := range dst {
				dst[t] = arr[off]
				off += inc
			}
		case kStore:
			arr, off, inc := s.arrays[op.slot], s.offs[op.pos], s.steps[op.pos]
			if inc == 1 {
				copy(arr[off:off+int64(m)], a)
			} else {
				for _, x := range a {
					arr[off] = x
					off += inc
				}
			}
			if s.wrote != nil && s.wrote[op.slot] != nil && s.member[op.stmt] {
				s.stampStrip(s.wrote[op.slot], s.offs[op.pos], inc, m, op.stmt)
			}
		case kLast:
			s.scalars[op.slot], s.scalarSet[op.slot] = a[m-1], true
		case kCarry:
			s.carry(op, dst, a)
		case kNeg:
			for t := range dst {
				dst[t] = -a[t]
			}
		case kAdd:
			for t := range dst {
				dst[t] = a[t] + b[t]
			}
		case kSub:
			for t := range dst {
				dst[t] = a[t] - b[t]
			}
		case kMul:
			for t := range dst {
				dst[t] = a[t] * b[t]
			}
		case kDiv:
			for t := range dst {
				dst[t] = a[t] / b[t]
			}
		case kOne:
			for t := range dst {
				dst[t] = op.one(a[t])
			}
		case kTwo:
			for t := range dst {
				dst[t] = op.two(a[t], b[t])
			}
		case kRound:
			for t := range dst {
				dst[t] = math.Round(a[t])
			}
		case kCopy:
			copy(dst, a)
		}
	}
}

// ordered runs the kernel over the m iterations from the current one on in
// iteration order, as the closures run them: each iteration one pass over the
// operations, every register its element 0.
func (s *State) ordered(ops []kop, slot int32, step, m int64) {
	w, r := int32(s.width), s.regs
	for k := int64(1); ; k++ {
		for i := range ops {
			op := &ops[i]
			d, a, b := op.dst*w, r[op.a*w], r[op.b*w]
			switch op.kind {
			case kConst:
				r[d] = op.val
			case kScalar:
				r[d] = s.scalars[op.slot]
			case kIndex:
				r[d] = float64(s.indices[op.slot])
			case kLoad:
				r[d] = s.arrays[op.slot][s.offs[op.pos]]
			case kStore:
				off := s.offs[op.pos]
				s.arrays[op.slot][off] = a
				if s.wrote != nil && s.wrote[op.slot] != nil && s.member[op.stmt] {
					s.wrote[op.slot][off] = stampOf(s.epoch, int(op.stmt))
				}
			case kLast:
				s.scalars[op.slot], s.scalarSet[op.slot] = a, true
			case kCarry:
				s.carry(op, r[d:d+1], r[op.a*w:][:1])
			case kNeg:
				r[d] = -a
			case kAdd:
				r[d] = a + b
			case kSub:
				r[d] = a - b
			case kMul:
				r[d] = a * b
			case kDiv:
				r[d] = a / b
			case kOne:
				r[d] = op.one(a)
			case kTwo:
				r[d] = op.two(a, b)
			case kRound:
				r[d] = math.Round(a)
			case kCopy:
				r[d] = a
			}
		}
		if k == m {
			return
		}
		s.advance(slot, step, 1)
	}
}

// carry runs a kCarry over the strip as the closures run the statement: s = s
// ⊕ a[t] at each t in turn, s on its side and rounded when integer-typed, each
// value left in dst. A reduction update whose combine runs privatized instead
// folds a[t] (negated for s = s − e) into the run's partial row where the
// State fills it (as redCode.accumulate does), and s stays as it is.
func (s *State) carry(op *kop, dst, a []float64) {
	sc := &s.code.stmts[op.stmt]
	x := s.scalars[op.slot]
	if c := sc.plan.Combine; sc.red != nil && s.PrivatizedActive(c) {
		if p, ok := sc.red.row(s); ok && (s.proc < 0 || p == s.proc) {
			acc := &s.partials[c.AccIndex][int64(p)*s.partialElems[c.AccIndex]]
			for _, e := range a {
				if sc.red.negate {
					e = -e
				}
				*acc = c.Red.Op.Fold(*acc, e)
			}
		}
		for t := range dst {
			dst[t] = x
		}
		return
	}
	for t, e := range a {
		l, r := x, e
		if op.right {
			l, r = e, x
		}
		x = op.two(l, r)
		if sc.round {
			x = math.Round(x)
		}
		dst[t] = x
	}
}
