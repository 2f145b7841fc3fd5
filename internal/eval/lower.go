// The lowered form of an spmd.Program: what the interpreter executes.
//
// The compiler resolves the owner-computes guard and every mapping decision
// at compile time; the runtime should only have to evaluate them. Lowering
// turns each statement's right-hand side, definition, condition and reduction
// operand, every loop's bounds, and the owner / execution-set computation of
// every statement plan and communication requirement into slot-indexed code
// over a State, once per program. Affine subscripts and bounds run in int64
// straight from their ir.Affine form (fused with the bounds guard and the
// offset computation for array accesses); every expression — and beyond that
// range, the tree of an affine form too — is a program of register operations
// (sweep.go), run by the scalar pass under the same range checks the
// tree-walking evaluator applied. Owner sets come out of dist.ProcSet values
// with inline coordinates, so a statement instance touches the heap nowhere.
//
// The lowered form is immutable and cached on the spmd.Program
// (Program.Lowered), built on the first execution rather than by the
// compiler: compiling alone pays nothing for it, every State of every run
// shares it, and anything that can only fail when executed (an unknown
// variable in a hand-built tree, a zero step, an out-of-range subscript)
// still fails when — and only when — execution reaches it.
//
// Error discipline: programs compute bare values. The first error of an
// evaluation is parked on the State (State.fail) and evaluation runs on over
// harmless zero values; every entry point into lowered code checks and clears
// it (State.takeErr) before any effect of the failed evaluation could become
// visible. A program's operations are in the tree's order, depth first and
// left to right, so the parked error is the one a stop-at-first-error
// evaluator reports, and floating-point operations happen in the same order.
//
// A loop that is executed as owner runs also gets, where its body allows one,
// a run kernel: its statements' programs as one list, which the strip kernel
// applies to a whole strip of a quiet run's iterations at once, so that the
// dispatch a program pays per statement instance is paid per strip. An
// operator or intrinsic is one element function (elemental, ast.Intrinsics)
// that both passes apply — only + − × ÷ are spelled out, in each. The kernel
// admits nothing that can fail; every other path (the general walk, loud
// runs, conditions, subscripts, any Backend but the schedule) runs programs,
// and a quiet run a sweep would reorder runs its kernel through the scalar
// pass, one iteration at a time.
package eval

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"phpf/internal/ast"
	"phpf/internal/comm"
	"phpf/internal/core"
	"phpf/internal/dist"
	"phpf/internal/ir"
	"phpf/internal/spmd"
)

// code is the lowered form of one program, indexed by the dense IDs the
// plan's statements, loops, references and requirements carry.
type code struct {
	stmts  []stmtCode
	loops  []loopCode
	reqs   []reqCode
	owners []*ownerCode // by Ref.ID; nil for scalar references
	// nowners counts the owner codes (ownerCode.id numbers them); arrs lists
	// the affine array accesses of run-lowered loops, loop by loop
	// (arrCode.pos is an access's position in it).
	nowners int
	arrs    []*arrCode
	// coefs holds, access by access of arrs that a loop runs, each
	// subscript's coefficient of the run loop's index (arrCode.coefs is the
	// first): what opening a run reads its far end and its steps from.
	coefs []int64
	// nreg is the registers the largest run kernel uses, and kpairs the pairs
	// of a kernel's accesses that sweepable tests, kernel by kernel
	// (loopCode.pairs) (sweep.go). tab is what the programs name by number;
	// bound extends it with what forProcessors lowers.
	nreg       int32
	kpairs     []kpair
	tab, bound tables
	// charges is the most charges an iteration of a run-lowered loop makes: per
	// statement the compute and a guard per per-instance requirement.
	charges int
	// scalars holds the owner set of every mapped scalar definition
	// (reduction combines, lastprivate copy-outs).
	scalars map[*core.ScalarMapping]*patCode
	// tracked marks, by slot, the arrays some statement writes outside the
	// owner rule — a privatized array, or one written where its element's
	// owner does not execute — whose final values are where the last write
	// ran, not with the final mapping's owner (see State.InterpretFor).
	// procs guards forProcessors, which fills it, reads and the fields of
	// stmtCode and reqCode only States bound to a processor read. reads lists,
	// by statement, the collective accumulators it reads in their carrier
	// loops, the update aside (schedule.handOff).
	tracked []bool
	reads   [][]*ir.Var
	procs   sync.Once
}

// lowered returns the program's lowered form, building it on first use.
func (s *State) lowered() *code {
	if s.code == nil {
		s.bind(s.Prog.Lowered(func() any { return lower(s.Prog) }).(*code))
	}
	return s.code
}

// fail parks the first error of the evaluation in flight.
func (s *State) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// takeErr returns and clears the parked error.
func (s *State) takeErr() error {
	err := s.err
	s.err = nil
	return err
}

// ---------------------------------------------------------------------------
// Integer-valued code: subscripts, loop bounds, pattern positions

// unlimited is the lim of an affine form with no exactness constraint: above
// every loop index (bounds are range-checked to 2^53), small enough that
// eval's range test cannot wrap.
const unlimited = int64(1) << 62

// affTerm is one linear term of an affine form: coef times the loop index
// in slot.
type affTerm struct {
	slot int32
	coef int64
}

// intCode evaluates an integer-valued expression. When affine it computes
// c + Σ coef·index in int64 as long as every index magnitude is within lim —
// the range over which the float evaluation of the original tree is exact at
// every node and so yields the same integer (ir.Affine.Exact). Beyond it, and
// for non-affine expressions, it evaluates fn and converts under the 2^53
// range check.
type intCode struct {
	// single marks the commonest subscript, c + coef·index[slot], which eval
	// computes ahead of the general term loop.
	single, affine bool
	slot           int32
	coef           int64

	c, lim int64
	terms  []affTerm
	fn     []kop
}

func (ic *intCode) eval(s *State) (int64, bool) {
	if ic.single {
		if v := s.indices[ic.slot]; uint64(v+ic.lim) <= uint64(2*ic.lim) { // |v| <= lim
			return ic.c + ic.coef*v, true
		}
	}
	return ic.evalGeneral(s)
}

func (ic *intCode) evalGeneral(s *State) (int64, bool) {
	if ic.affine {
		x, exact := ic.c, true
		for _, t := range ic.terms {
			v := s.indices[t.slot]
			exact = exact && uint64(v+ic.lim) <= uint64(2*ic.lim)
			x += t.coef * v
		}
		if exact {
			return x, true
		}
	}
	// Through the program of the tree, rejecting values outside the exactly
	// representable range instead of wrapping through the conversion.
	x := s.pass(ic.fn)
	if s.err != nil {
		return 0, false
	}
	if math.IsNaN(x) || x > ast.MaxExact || x < -ast.MaxExact {
		s.fail(&NumericError{What: "integer value", Val: x})
		return 0, false
	}
	return int64(math.Round(x)), true
}

// coefOf returns the coefficient of the loop index in slot in an affine form
// (0 when it does not appear).
func (ic *intCode) coefOf(slot int32) int64 {
	for _, t := range ic.terms {
		if t.slot == slot {
			return t.coef
		}
	}
	return 0
}

// runLim returns the index (and step) magnitude up to which the form is a
// pure function c + Σ coef·index of the loop indices whose values, and whose
// change per iteration, stay below 2^52 — what lets a loop reason about the
// form over a whole run of iterations instead of evaluating it at each. Zero:
// not affine, so no such range.
func (ic *intCode) runLim() int64 {
	if !ic.affine {
		return 0
	}
	size := max(float64(ic.c), -float64(ic.c))
	for _, t := range ic.terms {
		size += max(float64(t.coef), -float64(t.coef))
	}
	return min(ic.lim, int64(float64(int64(1)<<52)/max(size, 1)))
}

// ---------------------------------------------------------------------------
// The lowerer

type lowerer struct {
	p    *spmd.Program
	prog *ir.Program
	c    *code
	// run is the run-lowered loop whose statement is being lowered (nil for
	// any other statement): its affine array accesses enlist in code.arrs.
	run *loopCode
	// kscalars is kernel's scratch: the scalars the body in hand writes.
	kscalars []kscalar
	// tab takes what programs name by number; ops is the builders' scratch,
	// chunk what programs are carved from, base the register those built now
	// start at (above a kAccess that evaluates them).
	tab   *tables
	ops   []kop
	chunk []kop
	base  int32
}

// lower builds the lowered form of p. It cannot fail: whatever could not be
// executed lowers to code that reports the error when reached.
func lower(p *spmd.Program) *code {
	prog := p.Res.Prog
	lw := &lowerer{p: p, prog: prog, c: &code{
		stmts:   make([]stmtCode, len(prog.Stmts)),
		loops:   make([]loopCode, len(prog.Loops)),
		reqs:    make([]reqCode, len(p.Plan.Reqs)),
		owners:  make([]*ownerCode, len(prog.Refs)),
		arrs:    make([]*arrCode, 0, len(prog.Refs)),
		scalars: make(map[*core.ScalarMapping]*patCode, len(p.Res.Scalars)),
	}}
	lw.tab = &lw.c.tab
	for _, r := range prog.Refs {
		if r.Var.IsArray() {
			lw.owner(r)
		}
	}
	for _, m := range p.Res.Scalars {
		var encl *ir.Loop
		if m.Def != nil && m.Def.Stmt != nil {
			encl = m.Def.Stmt.Loop
		}
		lw.c.scalars[m] = lw.pattern(m.Pattern, nil, encl)
	}
	for _, l := range prog.Loops {
		lc := &lw.c.loops[l.ID]
		lc.plan = p.LoopPlanOf(l)
		lc.lo = lw.affine(l.Lo, l.Parent, true)
		lc.hi = lw.affine(l.Hi, l.Parent, true)
		if l.Step != nil {
			step := lw.integer(l.Step, l.Parent)
			lc.step = &step
		}
		lc.body = flatBody(l)
	}
	lw.paths(prog.Body, nil)
	for _, st := range prog.Stmts {
		if l := st.Loop; l != nil && lw.c.loops[l.ID].body.n > 0 {
			lw.run = &lw.c.loops[l.ID]
		}
		lw.stmt(st)
		lw.run = nil
	}
	for _, req := range p.Plan.Reqs {
		lw.req(req)
	}
	subs := 0
	for _, ac := range lw.c.arrs {
		subs += len(ac.subs)
	}
	lw.c.coefs = make([]int64, 0, subs)
	for _, l := range prog.Loops {
		lw.runs(l)
	}
	return lw.c
}

// paths records every loop's route from the program body: the position of
// each node to descend into, list by list, followed by the branch (0 then,
// 1 else) when that node is a block IF.
func (lw *lowerer) paths(list []ir.Node, route []int32) {
	extend := func(tail ...int32) []int32 { return append(route[:len(route):len(route)], tail...) }
	for i, n := range list {
		switch x := n.(type) {
		case *ir.Loop:
			lw.c.loops[x.ID].path = extend(int32(i))
			lw.paths(x.Body, lw.c.loops[x.ID].path)
		case *ir.If:
			lw.paths(x.Then, extend(int32(i), 0))
			lw.paths(x.Else, extend(int32(i), 1))
		}
	}
}

// integer lowers an integer-valued expression evaluated inside loop encl.
func (lw *lowerer) integer(e ast.Expr, encl *ir.Loop) intCode {
	return lw.affine(ir.AnalyzeAffine(e, encl, nil), encl, true)
}

// affine lowers an analyzed subscript or position. exact marks forms the
// tree-walking evaluator computed through the float expression (subscripts,
// bounds): their int64 path is limited to the range where the two agree.
// Pattern positions were always evaluated from the affine form itself.
func (lw *lowerer) affine(a ir.Affine, encl *ir.Loop, exact bool) intCode {
	ic := intCode{c: a.Const, lim: unlimited}
	if a.OK {
		ic.affine = true
		for _, t := range a.Terms {
			ic.terms = append(ic.terms, affTerm{slot: t.Loop.Index.Slot, coef: t.Coef})
		}
		if !exact {
			return ic.finish()
		}
		if ic.lim = a.Exact; ic.lim == 0 {
			ic.affine = false
		}
	}
	ic.fn = lw.program(a.Expr, encl)
	return ic.finish()
}

// finish derives the single-term fast path from the affine form.
func (ic intCode) finish() intCode {
	if ic.affine && len(ic.terms) == 1 {
		ic.single, ic.slot, ic.coef = true, ic.terms[0].slot, ic.terms[0].coef
	}
	return ic
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// elemental holds the element functions of the relational and logical
// operators, one definition per spelling (ast.Op.String), and not is that of
// the negation; an intrinsic's are its entry of ast.Intrinsics. The scalar
// pass and the strip kernel (sweep.go) both apply them, numbered (fns); only
// + − × ÷ are written inline, in each.
func not(a float64) float64 { return b2f(a == 0) }

var elemental = map[string]func(a, b float64) float64{
	"==":  func(a, b float64) float64 { return b2f(a == b) },
	"/=":  func(a, b float64) float64 { return b2f(a != b) },
	"<":   func(a, b float64) float64 { return b2f(a < b) },
	"<=":  func(a, b float64) float64 { return b2f(a <= b) },
	">":   func(a, b float64) float64 { return b2f(a > b) },
	">=":  func(a, b float64) float64 { return b2f(a >= b) },
	"and": func(a, b float64) float64 { return b2f(a != 0 && b != 0) },
	"or":  func(a, b float64) float64 { return b2f(a != 0 || b != 0) },
}

// ---------------------------------------------------------------------------
// Array element access

// arrCode is one lowered array access: subscript evaluation, the bounds
// guard and the row-major offset, fused.
type arrCode struct {
	v       *ir.Var
	subs    []intCode
	strides []int64
	// line > 0 marks a definition: its errors carry the source line.
	line int
	// wide is the first dimension at which the shape's stride product leaves
	// int64 (-1: none). NewState rejects such shapes before any walk, so
	// this only keeps the guard the offset arithmetic always had.
	wide int
	// pos is the access's place in code.arrs when it sits in a run-lowered
	// loop and all its subscripts are affine (-1 otherwise): inside a run
	// that hoisted its guards, State.offs[pos] is its offset. coefs is where
	// its subscripts' coefficients start in code.coefs.
	pos, coefs int32
}

func (lw *lowerer) array(v *ir.Var, x *ast.Ref, encl *ir.Loop, line int) *arrCode {
	ac := &arrCode{v: v, line: line, wide: -1, pos: -1,
		subs: make([]intCode, v.Rank()), strides: make([]int64, v.Rank())}
	stride := int64(1)
	affine := true
	for k := range ac.subs {
		ac.subs[k] = lw.integer(x.Subs[k], encl)
		affine = affine && ac.subs[k].affine
		ac.strides[k] = stride
		var ok bool
		if stride, ok = mulChecked(stride, v.Dims[k]); !ok && ac.wide < 0 {
			ac.wide = k
		}
	}
	if lc := lw.run; lc != nil && affine {
		// A flat body's statements are lowered back to back, so its accesses
		// are one stretch of the list.
		if lc.arrs.n == 0 {
			lc.arrs.lo = int32(len(lw.c.arrs))
		}
		lc.arrs.n++
		ac.pos = int32(len(lw.c.arrs))
		lw.c.arrs = append(lw.c.arrs, ac)
	}
	return ac
}

// offset computes the linear (row-major, 1-based) offset of the access at
// the current indices, rejecting out-of-bounds subscripts. In-bounds
// subscripts of a shape NewState accepted cannot overflow the arithmetic.
// Inside an owner run that has hoisted the access's guards there is nothing
// to compute: the run keeps the offset, advanced once per iteration.
func (ac *arrCode) offset(s *State) (int64, bool) {
	// (Outside a run, where the test must cost least, it is one load.)
	if s.hoist.n != 0 && uint32(ac.pos-s.hoist.lo) < uint32(s.hoist.n) {
		return s.offs[ac.pos], true
	}
	off := int64(0)
	for k := range ac.subs {
		x, ok := ac.subs[k].eval(s)
		if !ok {
			return 0, false
		}
		if x < 1 || x > ac.v.Dims[k] {
			s.fail(ac.boundsError(k, x))
			return 0, false
		}
		if k == ac.wide {
			s.fail(&NumericError{Line: ac.line, What: ac.v.Name + " stride", Val: float64(ac.v.Dims[k])})
			return 0, false
		}
		off += (x - 1) * ac.strides[k]
	}
	return off, true
}

// open evaluates the access at the first iteration of an owner run whose index
// advances by step, reach over the run, and returns its offset and what an
// iteration adds to it; ok only where each subscript x is in bounds there and
// at the last, x + coef·reach — exact where exactOver admitted the loop, and in
// bounds at both ends is in bounds throughout (coefs: the run index's).
func (ac *arrCode) open(s *State, coefs []int64, step, reach int64) (off, inc int64, ok bool) {
	for k := range ac.subs {
		x, ok := ac.subs[k].eval(s)
		far, ext := x+coefs[k]*reach, ac.v.Dims[k]
		if !ok || x < 1 || x > ext || far < 1 || far > ext || k == ac.wide {
			return 0, 0, false
		}
		off += (x - 1) * ac.strides[k]
		inc += coefs[k] * step * ac.strides[k]
	}
	return off, inc, true
}

func (ac *arrCode) boundsError(k int, x int64) error {
	if ac.line > 0 {
		return fmt.Errorf("line %d: %s subscript %d out of bounds: %d (extent %d)",
			ac.line, ac.v.Name, k+1, x, ac.v.Dims[k])
	}
	return fmt.Errorf("%s subscript %d out of bounds: %d (extent %d)",
		ac.v.Name, k+1, x, ac.v.Dims[k])
}

// ---------------------------------------------------------------------------
// Owner and execution sets

// ownerCode computes the owners of one array reference under the dynamic
// distribution, or — inside the array's privatization loop — under the
// privatization override.
type ownerCode struct {
	id   int32 // dense number: the code's row of State.owners
	slot int32
	// runs is the loop (ID+1; 0: none) whose owner runs hold this set
	// constant: the only runs that may keep it in the set table.
	runs int32
	subs []intCode
	// priv is the privatization governing this reference (nil outside the
	// privatization loop); target owns the privatized grid dimensions.
	priv   *core.ArrayPrivatization
	target *ownerCode
}

func (lw *lowerer) owner(ref *ir.Ref) *ownerCode {
	if oc := lw.c.owners[ref.ID]; oc != nil {
		return oc
	}
	oc := &ownerCode{id: int32(lw.c.nowners), slot: ref.Var.Slot, subs: make([]intCode, len(ref.Subs))}
	lw.c.nowners++
	lw.c.owners[ref.ID] = oc
	for k, a := range ref.Subs {
		oc.subs[k] = lw.affine(a, ref.Stmt.Loop, true)
	}
	if ap := lw.p.Res.Arrays[ref.Var]; ap != nil && ir.Encloses(ap.Loop, ref.Stmt.Loop) {
		oc.priv = ap
		oc.target = lw.owner(ap.Target)
	}
	return oc
}

func (oc *ownerCode) eval(s *State) (dist.ProcSet, bool) {
	var buf [8]int64
	idx := buf[:0]
	if len(oc.subs) > len(buf) {
		idx = make([]int64, 0, len(oc.subs))
	}
	var axes []dist.AxisMap
	if s.proc >= 0 {
		// A bound State resolves the sets every processor resolves, each
		// subscript of which another processor may compute: it evaluates only
		// those along distributed dimensions, the ones the set depends on.
		axes = oc.axes(s)
	}
	for k := range oc.subs {
		if axes != nil && !axes[k].Distributed {
			idx = append(idx, 0)
			continue
		}
		x, ok := oc.subs[k].eval(s)
		if !ok {
			return dist.ProcSet{}, false
		}
		idx = append(idx, x)
	}
	if ap := oc.priv; ap != nil {
		// Privatized grid dims follow the target reference's owner now;
		// partitioned dims come from the privatization axes.
		tgt, ok := s.ownerOf(oc.target)
		if !ok {
			return dist.ProcSet{}, false
		}
		set := dist.AllProcs(s.grid)
		for d := range s.grid.Shape {
			if ap.PrivGrid[d] {
				if c, fixed := tgt.Fixed(d); fixed {
					set = set.WithDim(d, c)
				}
			}
		}
		for dim := range ap.Axes {
			if ax := &ap.Axes[dim]; ax.Distributed {
				set = set.WithDim(ax.GridDim, ax.OwnerDim(idx[dim], s.grid.Shape[ax.GridDim]))
			}
		}
		return set, true
	}
	am := s.dyn[oc.slot]
	if am == nil {
		return dist.AllProcs(s.grid), true
	}
	return am.Owner(s.grid, idx), true
}

// axes returns the axis maps the owner set follows now: the privatization's
// inside the privatization loop, else the dynamic mapping's (nil: replicated).
func (oc *ownerCode) axes(s *State) []dist.AxisMap {
	if oc.priv != nil {
		return oc.priv.Axes
	}
	if am := s.dyn[oc.slot]; am != nil {
		return am.Axes
	}
	return nil
}

func (oc *ownerCode) runLim() int64 {
	lim := unlimited
	for k := range oc.subs {
		lim = min(lim, oc.subs[k].runLim())
	}
	if oc.target != nil {
		lim = min(lim, oc.target.runLim())
	}
	return lim
}

// run: every subscript that moves along a distributed axis stays on its
// coordinate (dist.AxisMap.OwnerRun). The forms must be within their runLim.
func (oc *ownerCode) run(s *State, slot int32, step, n int64) int64 {
	if oc.target != nil {
		n = oc.target.run(s, slot, step, n)
	}
	axes := oc.axes(s)
	for dim := range axes {
		ax := &axes[dim]
		if coef := oc.subs[dim].coefOf(slot); coef != 0 && ax.Distributed {
			idx, _ := oc.subs[dim].eval(s)
			n = ax.OwnerRun(idx, coef*step, n, s.grid.Shape[ax.GridDim])
		}
	}
	return n
}

// patCode evaluates an owner pattern: the grid dimensions whose coordinate
// the pattern determines (replicated and widened dimensions are dropped at
// lowering time), each with its distribution and position.
type patCode struct {
	dims []patDim
}

type patDim struct {
	d   int
	ax  dist.AxisMap
	pos intCode
}

// pattern lowers an owner pattern. widen, when non-nil, lists loops whose
// indices range over a whole aggregated transfer: dimensions varying in them
// span all coordinates. encl is the loop the pattern's statement sits in.
func (lw *lowerer) pattern(pat dist.OwnerPattern, widen []*ir.Loop, encl *ir.Loop) *patCode {
	pc := &patCode{}
dims:
	for d, dp := range pat.Dims {
		if dp.Repl || (!dp.Sub.OK && dp.Sub.Expr == nil) {
			continue // everywhere, or an undefined position: the dimension stays wide
		}
		for _, l := range widen {
			if dp.Sub.VariesIn(l) {
				continue dims
			}
		}
		pc.dims = append(pc.dims, patDim{d: d, ax: dp.AxisMap, pos: lw.affine(dp.Sub, encl, false)})
	}
	return pc
}

func (pc *patCode) eval(s *State) dist.ProcSet {
	set := dist.AllProcs(s.grid)
	for i := range pc.dims {
		pd := &pc.dims[i]
		pos, ok := pd.pos.eval(s)
		if !ok {
			s.err = nil // an unevaluable position leaves the dimension wide
			continue
		}
		set = set.WithDim(pd.d, pd.ax.OwnerDim(pos, s.grid.Shape[pd.d]))
	}
	return set
}

func (pc *patCode) runLim() int64 {
	lim := unlimited
	for i := range pc.dims {
		lim = min(lim, pc.dims[i].pos.runLim())
	}
	return lim
}

func (pc *patCode) run(s *State, slot int32, step, n int64) int64 {
	for i := range pc.dims {
		pd := &pc.dims[i]
		if coef := pd.pos.coefOf(slot); coef != 0 {
			pos, _ := pd.pos.eval(s)
			n = pd.ax.OwnerRun(pos, coef*step, n, s.grid.Shape[pd.d])
		}
	}
	return n
}

// execCode computes a statement's execution set.
type execCode struct {
	kind  spmd.ExecKind
	owner *ownerCode // ExecOwner
	pat   *patCode   // ExecPattern
	loop  *ir.Loop   // ExecUnion
}

func (ec *execCode) eval(s *State) (dist.ProcSet, bool) {
	switch ec.kind {
	case spmd.ExecOwner:
		return s.ownerOf(ec.owner)
	case spmd.ExecPattern:
		return ec.pat.eval(s), true
	case spmd.ExecUnion:
		return s.UnionSet(ec.loop), true
	}
	return dist.AllProcs(s.grid), true
}

// runSet is one set computation an owner run holds constant: an owner code
// or a pattern.
type runSet interface {
	// runLim is the index and step magnitude up to which the set is computed
	// from exact affine forms (intCode.runLim); 0: it is not.
	runLim() int64
	// run shortens n, a count of iterations starting at the current one of
	// the loop whose index (in slot) advances by step, to those over which
	// the set stays what it is now.
	run(s *State, slot int32, step, n int64) int64
}

// sets names the statement's set computations to f: the execution set's, the
// source set's of every per-instance requirement, the data owners' of a
// privatized accumulation.
func (sc *stmtCode) sets(c *code, f func(runSet)) {
	switch sc.exec.kind {
	case spmd.ExecOwner:
		f(sc.exec.owner)
	case spmd.ExecPattern:
		f(sc.exec.pat)
	case spmd.ExecUnion:
		for _, part := range c.loops[sc.exec.loop.ID].union {
			f(part)
		}
	}
	for _, req := range sc.plan.PerInstance {
		if rc := &c.reqs[req.ID]; rc.srcOwner != nil {
			f(rc.srcOwner)
		} else {
			f(rc.srcPat)
		}
	}
	if sc.red != nil && sc.red.owner != nil {
		f(sc.red.owner)
	}
}

// union collects the contributions to l's union execution set: the owner
// pattern of every owner-driven statement under l, widened over l's inner
// loops. The result is non-nil even when empty.
func (lw *lowerer) union(l *ir.Loop) []*patCode {
	var inner []*ir.Loop
	for _, ll := range lw.prog.Loops {
		if ll != l && ir.Encloses(l, ll) {
			inner = append(inner, ll)
		}
	}
	parts := []*patCode{}
	for _, st := range lw.prog.Stmts {
		if st.Kind != ir.SAssign || !ir.Encloses(l, st.Loop) {
			continue
		}
		switch sp := lw.p.PlanOf(st); sp.Kind {
		case spmd.ExecOwner:
			parts = append(parts, lw.pattern(lw.p.Res.RefPattern(sp.OwnerRef), inner, st.Loop))
		case spmd.ExecPattern:
			parts = append(parts, lw.pattern(sp.Scalar.Pattern, inner, st.Loop))
		}
	}
	return parts
}

// ---------------------------------------------------------------------------
// Statements and loops

// stmtCode is one lowered statement: its execution set and value semantics.
type stmtCode struct {
	plan *spmd.StmtPlan
	exec execCode
	runs int32 // as ownerCode.runs, for the execution set

	// SAssign: evaluate rhs, then store through the definition — an array
	// element (def) or the scalar in slot, rounded when integer-typed.
	rhs   []kop
	def   *arrCode
	slot  int32
	round bool
	// red is the privatized form of a reduction update (nil for every other
	// statement); it runs in place of the assignment while the combine's
	// partial table is armed.
	red *redCode

	// SIf, SIfGoto
	cond []kop

	// everywhere marks an assignment every processor computes: it writes a
	// value some processor's set resolution, subscript or loop bound reads
	// (State.InterpretFor).
	everywhere bool
	// asideOK marks a block IF's predicate the plan lets a processor outside
	// its set leave aside (spmd.Program.SkippableIfs; State.aside).
	asideOK bool
}

// redCode is the privatized value semantics of one reduction update:
// evaluate only the contribution and fold it into the partial row of the
// processor that executes the instance.
type redCode struct {
	data   []kop
	negate bool
	owner  *ownerCode // owners of the reduction's data reference; nil: processor 0
	def    *arrCode   // elementwise reductions: the updated element
}

func (lw *lowerer) stmt(st *ir.Stmt) {
	sc := &lw.c.stmts[st.ID]
	sp := lw.p.PlanOf(st)
	sc.plan = sp
	sc.exec.kind = sp.Kind
	switch sp.Kind {
	case spmd.ExecOwner:
		sc.exec.owner = lw.owner(sp.OwnerRef)
	case spmd.ExecPattern:
		sc.exec.pat = lw.pattern(sp.Scalar.Pattern, nil, st.Loop)
	case spmd.ExecUnion:
		sc.exec.loop = st.Loop
		if l := st.Loop; l != nil && lw.c.loops[l.ID].union == nil {
			lw.c.loops[l.ID].union = lw.union(l)
		}
	}
	switch st.Kind {
	case ir.SAssign:
		v := st.Lhs.Var
		sc.rhs = lw.program(st.Rhs, st.Loop)
		sc.slot = v.Slot
		sc.round = v.Type == ast.Integer
		if v.IsArray() {
			sc.def = lw.array(v, st.Lhs.Ast, st.Loop, st.Line)
		}
		if c := sp.Combine; c != nil && c.Privatizable {
			sc.red = &redCode{data: lw.program(c.Red.Data, st.Loop), negate: c.Red.Negate, def: sc.def}
			if c.Red.DataRef != nil {
				sc.red.owner = lw.owner(c.Red.DataRef)
			}
		}
	case ir.SIf, ir.SIfGoto:
		sc.cond = lw.program(st.Cond, st.Loop)
	}
}

// assign runs the assignment's value semantics.
func (sc *stmtCode) assign(s *State) {
	val := s.pass(sc.rhs)
	if s.err != nil {
		return
	}
	if sc.def == nil {
		if sc.round {
			val = math.Round(val)
		}
		s.scalars[sc.slot] = val
		s.scalarSet[sc.slot] = true
		return
	}
	if off, ok := sc.def.offset(s); ok {
		s.arrays[sc.slot][off] = val
	}
}

// accumulate folds one reduction-update instance into the partial table of
// combine c. The real accumulator is untouched until MergePartials runs at
// loop exit (it is stale while the loop runs, which is why only the
// contribution is evaluated, never the full right-hand side).
func (rc *redCode) accumulate(s *State, c *spmd.Combine) {
	val := s.pass(rc.data)
	if s.err != nil {
		return
	}
	if rc.negate {
		val = -val
	}
	proc, ok := rc.row(s)
	if !ok {
		return
	}
	off := int64(0)
	if rc.def != nil {
		if off, ok = rc.def.offset(s); !ok {
			return
		}
	}
	tab := s.partials[c.AccIndex]
	i := int64(proc)*s.partialElems[c.AccIndex] + off
	tab[i] = c.Red.Op.Fold(tab[i], val)
}

// row returns the processor whose partial row the instance in hand
// accumulates into: the first owner of the reduction's data reference, or
// processor 0 when there is none.
func (rc *redCode) row(s *State) (int, bool) {
	if rc.owner == nil {
		return 0, true
	}
	set, ok := s.ownerOf(rc.owner)
	if !ok {
		return 0, false
	}
	return set.First(), true
}

// loopCode is one lowered loop: its bounds, the contributors to its union
// execution set when some statement of its body executes on it, and its
// static route from the program body (see paths), which a resuming walk
// follows back to it.
type loopCode struct {
	plan   *spmd.LoopPlan
	lo, hi intCode
	step   *intCode // nil: 1
	union  []*patCode
	path   []int32
	// allOrNone: a processor outside its IFs' sets walks all or none of an
	// entry of the loop (spmd.Program.AllOrNoneLoops).
	allOrNone bool

	// The loop as owner runs (walker.beginRun). body is the stretch of
	// code.stmts the loop's statements are when its body is a flat list of
	// assignments (empty otherwise), arrs the stretch of code.arrs their
	// affine array accesses are, and lim the magnitude of loop index and step
	// up to which every set computation of the body and every such access is
	// an affine function of the loop indices — 0 when one of them is not,
	// and the loop has no runs. nsets counts the body's set computations, kern
	// is its run kernel (nil: none), pairs the stretch of code.kpairs
	// sweepable tests of it.
	body, arrs, pairs span
	kern              []kop
	lim               int64
	nsets             int
}

// span is a stretch of a list: n elements from lo.
type span struct{ lo, n int32 }

// flatBody returns the loop's statements as a stretch of the program's when
// they are all plain assignments, numbered consecutively as a flat list is.
func flatBody(l *ir.Loop) span {
	for i, n := range l.Body {
		st, ok := n.(*ir.Stmt)
		if !ok || st.Kind != ir.SAssign || st.ID != l.Body[0].(*ir.Stmt).ID+i {
			return span{}
		}
	}
	if len(l.Body) == 0 {
		return span{}
	}
	return span{lo: int32(l.Body[0].(*ir.Stmt).ID), n: int32(len(l.Body))}
}

// runs settles whether the loop is executed as owner runs — its lim — and if
// so marks the set computations its runs hold constant.
func (lw *lowerer) runs(l *ir.Loop) {
	lc := &lw.c.loops[l.ID]
	if lc.body.n == 0 {
		return
	}
	lim := unlimited
	stmts := lw.c.stmts[lc.body.lo : lc.body.lo+lc.body.n]
	for i := range stmts {
		stmts[i].sets(lw.c, func(set runSet) {
			lim = min(lim, set.runLim())
			lc.nsets++
		})
	}
	arrs := lw.c.arrs[lc.arrs.lo : lc.arrs.lo+lc.arrs.n]
	for _, ac := range arrs {
		for k := range ac.subs {
			lim = min(lim, ac.subs[k].runLim())
		}
	}
	if lc.lim = lim; lim == 0 {
		return
	}
	for _, ac := range arrs {
		ac.coefs = int32(len(lw.c.coefs))
		for k := range ac.subs {
			lw.c.coefs = append(lw.c.coefs, ac.subs[k].coefOf(l.Index.Slot))
		}
	}
	id := int32(l.ID + 1)
	charges := 0
	for i := range stmts {
		charges += 1 + 2*len(stmts[i].plan.PerInstance) // a compute; a guard and a transfer each
		stmts[i].runs = id
		stmts[i].sets(lw.c, func(set runSet) {
			if oc, ok := set.(*ownerCode); ok {
				oc.runs = id
			}
		})
		for _, req := range stmts[i].plan.PerInstance {
			lw.c.reqs[req.ID].runs = id
		}
	}
	lw.c.charges = max(lw.c.charges, charges)
	lw.kernel(l)
}

// bounds evaluates the loop's lower bound, upper bound and step (1 when
// absent) at the current indices.
func (lc *loopCode) bounds(s *State) (lo, hi, step int64, ok bool) {
	if lo, ok = lc.lo.eval(s); !ok {
		return
	}
	if hi, ok = lc.hi.eval(s); !ok {
		return
	}
	step = 1
	if lc.step != nil {
		step, ok = lc.step.eval(s)
	}
	return
}

// ---------------------------------------------------------------------------
// Communication requirements

// reqCode is one lowered communication requirement. A per-instance
// requirement carries the source-set computation and the value of the used
// element; a vectorized one the trip-count loops, the widened source and
// destination patterns, and the coverage test.
type reqCode struct {
	runs     int32      // as ownerCode.runs, for the resolved per-instance transfer
	srcOwner *ownerCode // array uses: owners under the dynamic mapping
	srcPat   *patCode   // scalar uses (per instance); every use (vectorized)
	dstPat   *patCode
	// at is the used element's access (nil for a scalar use, the scalar in
	// slot): where a transfer's payload is read and stored.
	at   *arrCode
	slot int32
	// nest lists, outermost first, the hoisted loops a vectorized array use's
	// section is enumerated over; walk[k] says whether nest[k] is taken over
	// all its iterations — the use's address or owners vary in it, or the
	// bounds of a loop taken so do — or only its first (State.Section).
	nest []*ir.Loop
	walk []bool
	// lim is the index magnitude up to which the use's owners and readers
	// are exact affine forms, over which the innermost walked loop is taken
	// by stretches (0: one element at a time).
	lim int64
	// elemDst is the destination pattern widened over the loops not walked:
	// at a point of the section, the processors that read its element.
	elemDst *patCode
	// comb is the privatizable elementwise reduction the use's statement
	// updates (nil: none): while it runs privatized the element is read where
	// it accumulates, by the owners of reader (processor 0 when nil). operand
	// says whether that processor may lack it: the use is not the accumulator,
	// nor the data reference itself, nor computed everywhere.
	comb    *spmd.Combine
	reader  *ownerCode
	operand bool

	// trips lists the hoisted loops the used reference varies in: the
	// aggregated transfer counts an element once per iteration of those.
	trips   []*ir.Loop
	covered coverCode
	// ring is a shift's VectorizedOp.Ring: the sign of the first nonzero
	// distance from source to destination along a grid dimension.
	ring int
}

// coverCode decides whether, at one entry of the hoisted nest, the source
// data already resides wherever the destinations need it. never is the
// static verdict (some dimension cannot be covered); otherwise every listed
// dimension must map source and destination position to the same coordinate.
type coverCode struct {
	never bool
	dims  []coverDim
}

type coverDim struct {
	d          int
	sax, tax   dist.AxisMap
	spos, tpos intCode
}

func (lw *lowerer) req(req *comm.Requirement) {
	rc := &lw.c.reqs[req.ID]
	encl := req.Stmt.Loop
	if !req.Vectorized() {
		if req.Use.Var.IsArray() {
			rc.srcOwner = lw.owner(req.Use)
		} else {
			rc.srcPat = lw.pattern(req.SrcPat, nil, encl)
		}
		return
	}
	for _, l := range req.Hoisted {
		if RefVariesIn(req.Use, l) {
			rc.trips = append(rc.trips, l)
		}
	}
	rc.srcPat = lw.pattern(req.SrcPat, req.Hoisted, encl)
	rc.dstPat = lw.pattern(req.DstPat, req.Hoisted, encl)
	rc.ring = 1
	for d := range req.SrcPat.Dims {
		if delta, _ := req.SrcPat.Dims[d].Shift(req.DstPat.Dims[d]); delta != 0 {
			if delta < 0 {
				rc.ring = -1
			}
			break
		}
	}
	for d := range req.SrcPat.Dims {
		sd, td := req.SrcPat.Dims[d], req.DstPat.Dims[d]
		if sd.Repl {
			continue
		}
		if td.Repl {
			rc.covered.never = true
			return
		}
		// Statically identical determination covers regardless of hoisting.
		if dist.SameDim(sd, td) {
			continue
		}
		// Positions varying within the hoisted loops are covered only when
		// statically identical; fixed ones are compared per entry.
		for _, l := range req.Hoisted {
			if sd.Sub.VariesIn(l) || td.Sub.VariesIn(l) {
				rc.covered.never = true
				return
			}
		}
		undefined := func(a ir.Affine) bool { return !a.OK && a.Expr == nil }
		if undefined(sd.Sub) || undefined(td.Sub) || !sd.SameDistribution(td.AxisMap) {
			rc.covered.never = true
			return
		}
		rc.covered.dims = append(rc.covered.dims, coverDim{d: d, sax: sd.AxisMap, tax: td.AxisMap,
			spos: lw.affine(sd.Sub, encl, false), tpos: lw.affine(td.Sub, encl, false)})
	}
}

func (cc *coverCode) eval(s *State) bool {
	if cc.never {
		return false
	}
	for i := range cc.dims {
		cd := &cc.dims[i]
		spos, ok1 := cd.spos.eval(s)
		tpos, ok2 := cd.tpos.eval(s)
		if !ok1 || !ok2 {
			s.err = nil // an unevaluable position is not covered
			return false
		}
		n := s.grid.Shape[cd.d]
		if cd.sax.OwnerDim(spos, n) != cd.tax.OwnerDim(tpos, n) {
			return false
		}
	}
	return true
}

// forProcessors lowers, once per program and only for States bound to a
// processor (InterpretFor), what owner-computes execution adds to the form the
// simulator runs: where each requirement's element lives in an image and what
// a section enumerates (use), who computes what (everywhere), what reads a
// collective accumulator (reads), and which IFs and loops a processor outside
// a predicate's set may leave aside.
func (c *code) forProcessors(p *spmd.Program) {
	c.procs.Do(func() {
		t := c.tab
		c.bound = tables{slices.Clip(t.vals), slices.Clip(t.accs), slices.Clip(t.errs), t.nsreg}
		lw := &lowerer{p: p, prog: p.Res.Prog, c: c, tab: &c.bound}
		for _, req := range p.Plan.Reqs {
			lw.use(req)
		}
		lw.everywhere()
		lw.reads()
		for id, v := range p.SkippableIfs() {
			c.stmts[id].asideOK = v.OK
		}
		for id, v := range p.AllOrNoneLoops() {
			c.loops[id].allOrNone = v.OK
		}
	})
}

// use lowers where a requirement's element lives (at, slot), who reads it
// while its statement is a privatized elementwise update (comb, reader), and,
// for a vectorized array use, what State.Section enumerates: the hoisted loops
// outermost first, each walked when the use's address or owners move with it,
// or the bounds of a walked loop inside it do, and the destination widened
// over the others.
func (lw *lowerer) use(req *comm.Requirement) {
	rc, u := &lw.c.reqs[req.ID], req.Use
	rc.slot, rc.elemDst = u.Var.Slot, rc.dstPat
	if c := lw.p.PlanOf(req.Stmt).Combine; c != nil && c.Privatizable && c.Mapping == nil {
		rc.comb = c
		if c.Red.DataRef != nil {
			rc.reader = lw.owner(c.Red.DataRef)
		}
	}
	if !u.Var.IsArray() {
		return
	}
	rc.at, rc.srcOwner = lw.array(u.Var, u.Ast, req.Stmt.Loop, 0), lw.owner(u)
	if !req.Vectorized() {
		return
	}
	subs := append([]ir.Affine(nil), u.Subs...)
	if ap := lw.p.Res.Arrays[u.Var]; ap != nil && ir.Encloses(ap.Loop, req.Stmt.Loop) {
		subs = append(subs, ap.Target.Subs...)
	}
	if rc.comb != nil && rc.comb.Red.DataRef != nil {
		subs = append(subs, rc.comb.Red.DataRef.Subs...)
	}
	n := len(req.Hoisted)
	rc.nest, rc.walk = make([]*ir.Loop, n), make([]bool, n)
	for k, l := range req.Hoisted {
		rc.nest[n-1-k] = l
	}
	var still []*ir.Loop
	for k := n - 1; k >= 0; k-- {
		l := rc.nest[k]
		for _, a := range subs {
			rc.walk[k] = rc.walk[k] || a.VariesIn(l)
		}
		for j := k + 1; j < n; j++ {
			if in := rc.nest[j]; rc.walk[j] && (in.Lo.VariesIn(l) || in.Hi.VariesIn(l) || in.StepConst == 0) {
				rc.walk[k] = true
			}
		}
		if !rc.walk[k] {
			still = append(still, l)
		}
	}
	rc.elemDst = lw.pattern(req.DstPat, still, req.Stmt.Loop)
	rc.lim = min(rc.srcOwner.runLim(), rc.elemDst.runLim())
	if rc.reader != nil {
		rc.lim = min(rc.lim, rc.reader.runLim())
	}
}

// everywhere marks who computes what where processors must agree
// (spmd.Program.Everywhere), the operands only a privatized elementwise
// update reads, and the arrays written outside the owner rule.
func (lw *lowerer) everywhere() {
	prog := lw.prog
	for _, st := range prog.Stmts {
		lw.c.stmts[st.ID].everywhere = lw.p.Everywhere(st)
	}
	for _, req := range lw.p.Plan.Reqs {
		rc, u := &lw.c.reqs[req.ID], req.Use
		if c := rc.comb; c != nil {
			rc.operand = u.Var != c.Var() && !lw.p.Needed(u.Var) && !sameRef(u, c.Red.DataRef)
		}
	}
	lw.c.tracked = make([]bool, len(ir.AssignSlots(prog).Vars))
	for _, st := range prog.Stmts {
		sc := &lw.c.stmts[st.ID]
		if st.Kind == ir.SAssign && st.Lhs.Var.IsArray() && !sc.everywhere &&
			(sc.exec.kind != spmd.ExecOwner || !sameRef(sc.plan.OwnerRef, st.Lhs) || sc.exec.owner.priv != nil) {
			lw.c.tracked[st.Lhs.Var.Slot] = true
		}
	}
}

// reads lists by statement the accumulators of the mapped reductions its
// loops carry that it reads, the update aside: what keeps them collective.
func (lw *lowerer) reads() {
	lw.c.reads = make([][]*ir.Var, len(lw.prog.Stmts))
	for _, st := range lw.prog.Stmts {
		for l := st.Loop; l != nil; l = l.Parent {
			for _, c := range lw.p.LoopPlanOf(l).Combines {
				reads := slices.ContainsFunc(st.Uses, func(u *ir.Ref) bool { return u.Var == c.Var() })
				if c.Mapping != nil && st != c.Red.Stmt && reads {
					lw.c.reads[st.ID] = append(lw.c.reads[st.ID], c.Var())
				}
			}
		}
	}
}

// sameRef reports whether two references name the same element wherever
// both are evaluated: the same array, subscripts written alike.
func sameRef(a, b *ir.Ref) bool {
	return a == b || a != nil && b != nil && a.Var == b.Var && ast.Equal(a.Ast, b.Ast)
}
