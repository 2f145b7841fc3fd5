// Register operations: the one form every lowered expression takes (DESIGN.md
// §11, §14). A program is a short list of them that the scalar pass runs once
// for one value — a right-hand side, a condition, a reduction's contribution,
// the float fallback of integer code — and a loop's run kernel is its body as
// one such list, which the strip kernel runs over a whole strip of a quiet run's
// iterations at once (a swept run), or the scalar pass one iteration at a time.
package eval

import (
	"errors"
	"fmt"
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
	kConst  kopKind = iota // dst = the value tables.vals[x]
	kScalar                // dst = the scalar in slot (in a kernel, one the body does not write)
	kIndex                 // dst = the loop index in slot: in a kernel, the run's own advances, an outer one stands
	kLoad                  // dst = the element of hoisted access pos (of the array in slot)
	kAccess                // dst = the element access tables.accs[x] (of the array in slot) addresses; 0 where it fails
	kNeg                   // dst = -a
	kAdd                   // dst = a + b
	kSub
	kMul
	kDiv
	kOne   // dst = fns[x].One(a)
	kTwo   // dst = fns[x].Two(a, b)
	kCall  // dst = fns[x].Value of the pos registers from a: an intrinsic in a shape without an element function
	kFail  // park the error tables.errs[x]; dst = 0
	kRound // dst = a rounded: the store to an integer scalar
	kCopy  // dst = a
	kStore // the element of access pos = a; x is the statement
	kLast  // the scalar in slot = a's last element: what the run leaves in it
	kCarry // the scalar in slot = its value ⊕ a (fns[pos].Two), in iteration order; dst = each value; x is the statement
)

// kop is one register operation. dst, a and b number registers: in a program
// its intermediate values from the register it was built at (lowerer.base) up;
// in a kernel a scalar the body writes has one of its own for the whole body,
// an intermediate value the next free one above those.
type kop struct {
	kind      kopKind
	right     bool // kCarry: the scalar is fns[pos].Two's right operand
	dst, a, b int32
	slot, pos int32
	x         int32
}

// tables holds what an operation names by number: constants, general array
// accesses and the errors of what cannot be evaluated, and how many scalar
// registers the programs use (State.sregs).
type tables struct {
	vals  []float64
	accs  []*arrCode
	errs  []error
	nsreg int32
}

// fns numbers the element functions operations apply: every intrinsic's by
// name, the operators' by spelling (ast.Op.String) and not's — the one
// definition of each (ast.Intrinsics, ast.Arith, elemental).
var fns, fnOf = func() (fns []ast.Intrinsic, of map[string]int32) {
	of = map[string]int32{"not": 0}
	fns = []ast.Intrinsic{{One: not}}
	for op := ast.Add; op <= ast.OpOr; op++ {
		of[op.String()], fns = int32(len(fns)), append(fns, ast.Intrinsic{Two: elemental[op.String()]})
		if op <= ast.Div {
			fns[len(fns)-1].Two = ast.Arith[op]
		}
	}
	for name, in := range ast.Intrinsics {
		of[name], fns = int32(len(fns)), append(fns, in)
	}
	return fns, of
}()

// kpair is a pair of a kernel's accesses of one array, at least one of them a
// store, that sweepable tests: their positions in code.arrs, first the one
// the kernel meets first.
type kpair struct{ first, second int32 }

// kscalar is a scalar the body writes, written by writes statements, first the
// first: its register is its position in the builder's list.
type kscalar struct{ slot, first, writes int32 }

// kernel builds the run kernel of run-lowered loop l (lc.kern; nil when the
// body has none) from its statements' programs. It exists when no statement is
// an elementwise reduction update, every array access of the body is enlisted
// — so a run that hoisted the guards knows every address — and every read of
// a scalar the body writes follows a write by an earlier statement of the body
// — the scalar is private to an iteration, one register — or is the carried
// operand of its one write, s = s ⊕ e (a kCarry, which a scalar reduction
// update is too). Nothing else a program can hold — a data-dependent
// subscript, an intrinsic applied in a shape without an element function, an
// unknown name — has a strip operation, and a kernel parks no error.
func (lw *lowerer) kernel(l *ir.Loop) {
	lc := &lw.c.loops[l.ID]
	stmts := lw.c.stmts[lc.body.lo : lc.body.lo+lc.body.n]
	kb := kbuilder{lw: lw, scalars: lw.kscalars[:0], lo: len(lw.ops)}
	for i := range stmts {
		switch r := kb.written(stmts[i].slot); {
		case stmts[i].def != nil:
		case r < 0:
			kb.scalars = append(kb.scalars, kscalar{slot: stmts[i].slot, first: int32(i), writes: 1})
		default:
			kb.scalars[r].writes++
		}
	}
	lw.kscalars = kb.scalars
	kb.nreg = int32(len(kb.scalars))
	ok := true
	for i := 0; i < len(stmts) && ok; i++ {
		ok = kb.stmt(&stmts[i], lw.prog.Stmts[int(lc.body.lo)+i], int32(i))
	}
	if !ok {
		lw.ops = lw.ops[:kb.lo]
		return
	}
	for r, ks := range kb.scalars {
		kb.emit(kop{kind: kLast, a: int32(r), slot: ks.slot})
	}
	ops := lw.carve(kb.lo)
	lw.c.nreg = max(lw.c.nreg, kb.nreg)
	lw.tab.nsreg = max(lw.tab.nsreg, kb.nreg)
	// The pairs: a store and every load of its array, and every two stores of
	// it once.
	pairs := len(lw.c.kpairs)
	for j := range ops {
		for i := range ops {
			if ops[j].kind == kStore && i != j && ops[i].slot == ops[j].slot && (ops[i].kind == kLoad || ops[i].kind == kStore && i < j) {
				lw.c.kpairs = append(lw.c.kpairs, kpair{ops[min(i, j)].pos, ops[max(i, j)].pos})
			}
		}
	}
	lc.kern, lc.pairs = ops, span{lo: int32(pairs), n: int32(len(lw.c.kpairs) - pairs)}
}

// kbuilder emits one program, or one loop's kernel, into the lowerer's scratch.
type kbuilder struct {
	lw   *lowerer
	encl *ir.Loop // a program's enclosing loop
	lo   int      // where the builder's operations start in lw.ops
	nreg int32    // registers in use
	// A kernel's: the scalars the body writes (a scalar's register is its
	// position), the statement being emitted, and by register of its program
	// the kernel's register that holds the value.
	scalars []kscalar
	cur     int32
	alias   []int32
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
	kb.lw.ops = append(kb.lw.ops, op)
	return op.dst
}

// stmt emits statement i of the body: its right-hand side, then the store.
func (kb *kbuilder) stmt(sc *stmtCode, st *ir.Stmt, i int32) bool {
	kb.cur = i
	if reg := kb.written(sc.slot); sc.def == nil && kb.scalars[reg].writes == 1 {
		if op, ok := carried(st.Rhs, st.Lhs.Var.Name); ok {
			// e's operations: between the read of s and ⊕, or ahead of both.
			e, base := sc.rhs[1:len(sc.rhs)-1], int32(1)
			if op.right {
				e, base = sc.rhs[:len(sc.rhs)-2], 0
			}
			op.a, ok = kb.body(e, base)
			op.dst, op.slot, op.x = reg, sc.slot, int32(st.ID)
			kb.emit(op)
			return ok
		}
	}
	val, ok := kb.body(sc.rhs, 0)
	switch reg := kb.written(sc.slot); {
	case !ok || sc.red != nil || sc.def != nil && sc.def.pos < 0:
		return false
	case sc.def != nil:
		kb.emit(kop{kind: kStore, a: val, slot: sc.slot, pos: sc.def.pos, x: int32(st.ID)})
	case sc.round:
		kb.emit(kop{kind: kRound, dst: reg, a: val})
	case val >= int32(len(kb.scalars)):
		// An intermediate value is the result of the operation emitted last,
		// which can as well leave it in the scalar's register.
		kb.lw.ops[len(kb.lw.ops)-1].dst = reg
	case val != reg:
		kb.emit(kop{kind: kCopy, dst: reg, a: val})
	}
	return true
}

// body emits program p, built from register base, in the kernel's registers,
// and returns the one its value is left in: a read of a scalar the body has
// written is that scalar's register, an array element a load through its
// enlisted access, and any other value takes the lowest register above the
// scalars' and the values still held. ok is false where an operation has no
// strip form.
func (kb *kbuilder) body(p []kop, base int32) (val int32, ok bool) {
	temp := int32(len(kb.scalars))
	at := func(r int32) int32 {
		if r -= base; r >= 0 && r < int32(len(kb.alias)) {
			return kb.alias[r]
		}
		return 0 // an operand the operation does not read
	}
	for _, op := range p {
		k := op.dst - base
		for int32(len(kb.alias)) <= k {
			kb.alias = append(kb.alias, 0)
		}
		switch op.kind {
		case kAccess:
			if op.kind, op.pos = kLoad, kb.lw.tab.accs[op.x].pos; op.pos < 0 {
				return 0, false
			}
		case kCall, kFail:
			return 0, false
		case kScalar:
			if r := kb.written(op.slot); r >= 0 {
				// Written by this statement or a later one first: the value
				// read is the previous iteration's, which a register does not
				// hold.
				if kb.alias[k], val = r, r; kb.scalars[r].first >= kb.cur {
					return 0, false
				}
				continue
			}
		}
		dst := temp
		for _, r := range kb.alias[:k] {
			if r >= temp {
				dst++
			}
		}
		op.dst, op.a, op.b = dst, at(op.a), at(op.b)
		kb.alias[k] = dst
		val = kb.emit(op)
	}
	return val, true
}

// program lowers e, evaluated inside loop encl, to a program whose registers
// start at lw.base: its value is left in the register of its last operation.
// Whatever cannot be evaluated becomes a kFail where the tree has it, so the
// error is parked when — and only when — the pass reaches it.
func (lw *lowerer) program(e ast.Expr, encl *ir.Loop) []kop {
	kb := kbuilder{lw: lw, encl: encl, lo: len(lw.ops)}
	kb.expr(e, lw.base)
	lw.tab.nsreg = max(lw.tab.nsreg, kb.nreg)
	return lw.carve(kb.lo)
}

// carve moves the operations emitted from lo on out of the builders' scratch
// into the chunk programs are cut from.
func (lw *lowerer) carve(lo int) []kop {
	ops := lw.ops[lo:]
	if cap(lw.chunk)-len(lw.chunk) < len(ops) {
		lw.chunk = make([]kop, 0, max(64, len(ops)))
	}
	n := len(lw.chunk)
	lw.chunk = append(lw.chunk, ops...)
	lw.ops = lw.ops[:lo]
	return lw.chunk[n:len(lw.chunk):len(lw.chunk)]
}

// expr emits the operations of e, depth first and left to right, leaving its
// value in temp, the lowest register free.
func (kb *kbuilder) expr(e ast.Expr, temp int32) {
	switch x := e.(type) {
	case *ast.IntConst:
		kb.constant(float64(x.Value), temp)
	case *ast.RealConst:
		kb.constant(x.Value, temp)
	case *ast.Ref:
		kb.ref(x, temp)
	case *ast.UnaryMinus:
		kb.expr(x.X, temp)
		kb.emit(kop{kind: kNeg, dst: temp, a: temp})
	case *ast.Not:
		kb.expr(x.X, temp)
		kb.emit(kop{kind: kOne, dst: temp, a: temp, x: fnOf["not"]})
	case *ast.BinOp:
		switch {
		case x.Op >= ast.Add && x.Op <= ast.Div: // in kAdd's order
			kb.apply(kop{kind: kAdd + kopKind(x.Op-ast.Add)}, temp, x.L, x.R)
		case x.Op >= ast.OpEq && x.Op <= ast.OpOr:
			kb.apply(kop{kind: kTwo, x: fnOf[x.Op.String()]}, temp, x.L, x.R)
		default:
			kb.fail(temp, errors.New("bad operator"), x.L, x.R)
		}
	case *ast.Call:
		// The parser fixes each intrinsic's arity (only a variadic one takes
		// more than two arguments); any other shape is a kCall.
		switch in, known := ast.Intrinsics[x.Name]; {
		case !known:
			kb.fail(temp, fmt.Errorf("unknown intrinsic %s", x.Name), x.Args...)
		case len(x.Args) == 0:
			kb.fail(temp, fmt.Errorf("%s of no arguments", x.Name))
		case len(x.Args) == 1 && in.One != nil:
			kb.expr(x.Args[0], temp)
			kb.emit(kop{kind: kOne, dst: temp, a: temp, x: fnOf[x.Name]})
		case len(x.Args) >= 2 && in.Two != nil:
			kb.apply(kop{kind: kTwo, x: fnOf[x.Name]}, temp, x.Args...)
		default:
			kb.operands(temp, x.Args)
			kb.emit(kop{kind: kCall, dst: temp, a: temp, pos: int32(len(x.Args)), x: fnOf[x.Name]})
		}
	default:
		kb.fail(temp, fmt.Errorf("unsupported expression %T", e))
	}
}

func (kb *kbuilder) constant(v float64, temp int32) {
	kb.lw.tab.vals = append(kb.lw.tab.vals, v)
	kb.emit(kop{kind: kConst, dst: temp, x: int32(len(kb.lw.tab.vals) - 1)})
}

// ref emits a read of x, an array element through its general access, whose
// subscript programs are built in the registers above temp.
func (kb *kbuilder) ref(x *ast.Ref, temp int32) {
	lw := kb.lw
	switch v := lw.prog.LookupVar(x.Name); {
	case v == nil:
		kb.fail(temp, fmt.Errorf("unknown variable %s", x.Name))
	case v.IsLoopIndex:
		kb.emit(kop{kind: kIndex, dst: temp, slot: v.Slot})
	case v.IsArray():
		base := lw.base
		lw.base = temp + 1
		lw.tab.accs = append(lw.tab.accs, lw.array(v, x, kb.encl, 0))
		lw.base = base
		kb.emit(kop{kind: kAccess, dst: temp, slot: v.Slot, x: int32(len(lw.tab.accs) - 1)})
	default:
		kb.emit(kop{kind: kScalar, dst: temp, slot: v.Slot})
	}
}

// fail emits, after the operands (evaluated as the tree has them, into temp
// on), the parking of err.
func (kb *kbuilder) fail(temp int32, err error, operands ...ast.Expr) {
	kb.operands(temp, operands)
	kb.lw.tab.errs = append(kb.lw.tab.errs, err)
	kb.emit(kop{kind: kFail, dst: temp, x: int32(len(kb.lw.tab.errs) - 1)})
}

// operands emits args into consecutive registers from temp.
func (kb *kbuilder) operands(temp int32, args []ast.Expr) {
	for k, a := range args {
		kb.expr(a, temp+int32(k))
	}
}

// carried matches s = s ⊕ e and s = e ⊕ s, where ⊕ is + − × ÷ or an intrinsic
// of two arguments and name is the scalar s, and returns the kCarry that
// applies ⊕ with s on the side it is written. (An e that reads s has no
// strip form: a kernel reads s only where an earlier statement wrote it.)
func carried(rhs ast.Expr, name string) (op kop, ok bool) {
	op.kind = kCarry
	var l, r ast.Expr
	switch x := rhs.(type) {
	case *ast.BinOp:
		if int(x.Op) >= len(ast.Arith) {
			return op, false
		}
		op.pos, l, r = fnOf[x.Op.String()], x.L, x.R
	case *ast.Call:
		if ast.Intrinsics[x.Name].Two == nil || len(x.Args) != 2 {
			return op, false
		}
		op.pos, l, r = fnOf[x.Name], x.Args[0], x.Args[1]
	default:
		return op, false
	}
	self := func(e ast.Expr) bool {
		ref, ok := e.(*ast.Ref)
		return ok && len(ref.Subs) == 0 && ref.Name == name
	}
	op.right = !self(l)
	return op, self(l) || self(r)
}

// apply emits the left fold of a two-operand operation over args, into temp.
func (kb *kbuilder) apply(op kop, temp int32, args ...ast.Expr) {
	kb.expr(args[0], temp)
	for _, arg := range args[1:] {
		kb.expr(arg, temp+1)
		op.dst, op.a, op.b = temp, temp, temp+1
		kb.emit(op)
	}
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
// strip at a time: the strip's iterations are closed first, their charges
// made in order (schedule.iterations), then their value semantics run through the
// kernel — by the strip kernel over the whole strip at once, statement by
// statement, where sweepable accepted the run (State.swept 1), and by the
// scalar pass one iteration at a time where it refused. Nothing a charge
// reads is written by a value or the reverse, and a kernel cannot fail, so
// only the backend ending the run could tell the order from the loop's — and
// the iteration that ends it is the last one evaluated, as there.
func (w *walker) sweep(ops []kop, slot int32, step, n, stmts int64) error {
	s := w.s
	for {
		s.registers(min(n, strip))
		m, err := w.sched.iterations(w.quiet, min(n, strip))
		if s.swept > 0 {
			s.kernel(ops, slot, step, int(m))
			s.advance(slot, step, m-1)
		}
		for k := int64(1); s.swept < 0; k++ {
			if s.pass(ops); k == m {
				break
			}
			s.advance(slot, step, 1)
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
// once, to strip. The scalar file shares its allocation.
func (s *State) registers(m int64) {
	if m <= int64(s.width) {
		return
	}
	if s.width = strip; s.regs == nil {
		for s.width = 32; int64(s.width) < m; s.width *= 2 {
		}
	}
	n := int(s.code.nreg) * s.width
	file := make([]float64, n+int(s.tab.nsreg))
	s.regs, s.sregs = file[:n], file[n:]
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

// pass is the scalar pass: ops run once, in order, each register one value,
// and it returns the value the last one left, a program's. A kAccess
// evaluates its subscripts, whose programs run inside it in the registers
// above its own.
func (s *State) pass(ops []kop) float64 {
	if s.sregs == nil {
		s.sregs = make([]float64, s.tab.nsreg)
	}
	r, t := s.sregs, &s.tab
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case kConst:
			r[op.dst] = t.vals[op.x]
		case kScalar:
			r[op.dst] = s.scalars[op.slot]
		case kIndex:
			r[op.dst] = float64(s.indices[op.slot])
		case kLoad:
			r[op.dst] = s.arrays[op.slot][s.offs[op.pos]]
		case kAccess:
			x := 0.0
			if off, ok := t.accs[op.x].offset(s); ok {
				x = s.arrays[op.slot][off]
			}
			r[op.dst] = x
		case kStore:
			off := s.offs[op.pos]
			s.arrays[op.slot][off] = r[op.a]
			if s.wrote != nil && s.wrote[op.slot] != nil && s.member[op.x] {
				s.wrote[op.slot][off] = stampOf(s.epoch, int(op.x))
			}
		case kLast:
			s.scalars[op.slot], s.scalarSet[op.slot] = r[op.a], true
		case kCarry:
			s.carry(op, r[op.dst:op.dst+1], r[op.a:op.a+1])
		case kNeg:
			r[op.dst] = -r[op.a]
		case kAdd:
			r[op.dst] = r[op.a] + r[op.b]
		case kSub:
			r[op.dst] = r[op.a] - r[op.b]
		case kMul:
			r[op.dst] = r[op.a] * r[op.b]
		case kDiv:
			r[op.dst] = r[op.a] / r[op.b]
		case kOne:
			r[op.dst] = fns[op.x].One(r[op.a])
		case kTwo:
			r[op.dst] = fns[op.x].Two(r[op.a], r[op.b])
		case kCall:
			x := 0.0 // not applied past an error, which ends a stop-at-first-error evaluation
			if s.err == nil {
				x = fns[op.x].Value(r[op.a : op.a+op.pos])
			}
			r[op.dst] = x
		case kFail:
			s.fail(t.errs[op.x])
			r[op.dst] = 0
		case kRound:
			r[op.dst] = math.Round(r[op.a])
		case kCopy:
			r[op.dst] = r[op.a]
		}
	}
	return r[ops[len(ops)-1].dst]
}

// kernel runs the value semantics of the m iterations from the current one on:
// element t of every register is what the scalar pass computes at iteration t,
// by the same float64 operations on the same operands.
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
			x := s.tab.vals[op.x]
			for t := range dst {
				dst[t] = x
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
			if s.wrote != nil && s.wrote[op.slot] != nil && s.member[op.x] {
				s.stampStrip(s.wrote[op.slot], s.offs[op.pos], inc, m, op.x)
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
			f := fns[op.x].One
			for t := range dst {
				dst[t] = f(a[t])
			}
		case kTwo:
			f := fns[op.x].Two
			for t := range dst {
				dst[t] = f(a[t], b[t])
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

// carry runs a kCarry over the strip as the scalar pass runs the statement: s
// = s ⊕ a[t] at each t in turn, s on its side and rounded when integer-typed,
// each value left in dst. A reduction update whose combine runs privatized
// instead folds a[t] (negated for s = s − e) into the run's partial row where
// the State fills it (as redCode.accumulate does), and s stays as it is.
func (s *State) carry(op *kop, dst, a []float64) {
	sc := &s.code.stmts[op.x]
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
	two := fns[op.pos].Two
	for t, e := range a {
		l, r := x, e
		if op.right {
			l, r = e, x
		}
		x = two(l, r)
		if sc.round {
			x = math.Round(x)
		}
		dst[t] = x
	}
}
