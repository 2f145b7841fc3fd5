// The tree-walking reference interpreter: the expression path the lowered
// form (lower.go) replaced, kept as the oracle the lowered form is tested
// against. It walks ast.Expr through float64 for every value, subscript,
// bound and owner set, stops at the first error, and drives a cost-model
// backend that charges the machine exactly as internal/sim does on a
// fault-free, untraced run — so a whole simulation (final memory, Stats,
// simulated time) can be compared bit for bit with the production path.
//
// Nothing outside the tests calls any of this.
package eval

import (
	"errors"
	"fmt"
	"math"

	"phpf/internal/ast"
	"phpf/internal/comm"
	"phpf/internal/core"
	"phpf/internal/dist"
	"phpf/internal/ir"
	"phpf/internal/machine"
	"phpf/internal/spmd"
)

// oracle interprets over a State's memory image without touching the
// State's lowered code.
type oracle struct {
	*State
	priv      []*core.ArrayPrivatization // by Var.Slot
	unionPart [][]oracleContrib          // by Loop.ID
}

type oracleContrib struct {
	pat   dist.OwnerPattern
	widen []*ir.Loop
}

func newOracle(s *State) *oracle {
	o := &oracle{State: s,
		priv:      make([]*core.ArrayPrivatization, len(s.slots)),
		unionPart: make([][]oracleContrib, len(s.Prog.Res.Prog.Loops))}
	for _, v := range s.Prog.Res.Prog.VarList {
		o.priv[v.Slot] = s.Prog.Res.Arrays[v]
	}
	return o
}

// ---------------------------------------------------------------------------
// Value semantics

// Eval evaluates an expression over the current memory image.
func (o *oracle) Eval(e ast.Expr) (float64, error) {
	switch x := e.(type) {
	case *ast.IntConst:
		return float64(x.Value), nil
	case *ast.RealConst:
		return x.Value, nil
	case *ast.Ref:
		var v *ir.Var
		if x.Slot > 0 {
			v = o.slots[x.Slot-1]
		} else if v = o.Prog.Res.Prog.LookupVar(x.Name); v == nil {
			return 0, fmt.Errorf("unknown variable %s", x.Name)
		}
		if v.IsLoopIndex {
			return float64(o.indices[v.Slot]), nil
		}
		if !v.IsArray() {
			return o.scalars[v.Slot], nil
		}
		off := int64(0)
		stride := int64(1)
		for k := 0; k < v.Rank(); k++ {
			sub, err := o.EvalInt(x.Subs[k])
			if err != nil {
				return 0, err
			}
			if sub < 1 || sub > v.Dims[k] {
				return 0, fmt.Errorf("%s subscript %d out of bounds: %d (extent %d)",
					v.Name, k+1, sub, v.Dims[k])
			}
			off += (sub - 1) * stride
			stride *= v.Dims[k]
		}
		return o.arrays[v.Slot][off], nil
	case *ast.UnaryMinus:
		r, err := o.Eval(x.X)
		if err != nil {
			return 0, err
		}
		return -r, nil
	case *ast.Not:
		r, err := o.Eval(x.X)
		if err != nil {
			return 0, err
		}
		if r == 0 {
			return 1, nil
		}
		return 0, nil
	case *ast.BinOp:
		l, err := o.Eval(x.L)
		if err != nil {
			return 0, err
		}
		r, err := o.Eval(x.R)
		if err != nil {
			return 0, err
		}
		return oracleBin(x.Op, l, r)
	case *ast.Call:
		args := make([]float64, len(x.Args))
		for k, aexp := range x.Args {
			v, err := o.Eval(aexp)
			if err != nil {
				return 0, err
			}
			args[k] = v
		}
		// The definition in ast.Intrinsics, which the compile-time fold shares.
		in, ok := ast.Intrinsics[x.Name]
		if !ok {
			return 0, fmt.Errorf("unknown intrinsic %s", x.Name)
		}
		if len(args) == 0 {
			return 0, fmt.Errorf("%s of no arguments", x.Name)
		}
		return in.Value(args), nil
	}
	return 0, fmt.Errorf("unsupported expression %T", e)
}

func oracleBin(op ast.Op, l, r float64) (float64, error) {
	switch op {
	case ast.Add:
		return l + r, nil
	case ast.Sub:
		return l - r, nil
	case ast.Mul:
		return l * r, nil
	case ast.Div:
		return l / r, nil
	case ast.OpEq:
		return b2f(l == r), nil
	case ast.OpNe:
		return b2f(l != r), nil
	case ast.OpLt:
		return b2f(l < r), nil
	case ast.OpLe:
		return b2f(l <= r), nil
	case ast.OpGt:
		return b2f(l > r), nil
	case ast.OpGe:
		return b2f(l >= r), nil
	case ast.OpAnd:
		return b2f(l != 0 && r != 0), nil
	case ast.OpOr:
		return b2f(l != 0 || r != 0), nil
	}
	return 0, fmt.Errorf("bad operator")
}

// EvalInt evaluates an expression as an integer, rejecting values outside
// the exactly representable range.
func (o *oracle) EvalInt(e ast.Expr) (int64, error) {
	x, err := o.Eval(e)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(x) || x > ast.MaxExact || x < -ast.MaxExact {
		return 0, &NumericError{What: "integer value", Val: x}
	}
	return int64(math.Round(x)), nil
}

// EvalAffine evaluates an affine form (falling back to the expression for
// non-affine subscripts).
func (o *oracle) EvalAffine(a ir.Affine) (int64, error) {
	if a.OK {
		x := a.Const
		for _, t := range a.Terms {
			x += t.Coef * o.indices[t.Loop.Index.Slot]
		}
		return x, nil
	}
	if a.Expr == nil {
		return 0, fmt.Errorf("undefined pattern position")
	}
	return o.EvalInt(a.Expr)
}

// Store assigns val through a definition reference.
func (o *oracle) Store(ref *ir.Ref, val float64) error {
	v := ref.Var
	if !v.IsArray() {
		if v.Type == ast.Integer {
			val = math.Round(val)
		}
		o.scalars[v.Slot] = val
		o.scalarSet[v.Slot] = true
		return nil
	}
	off, err := o.ArrayOffset(ref)
	if err != nil {
		return err
	}
	o.arrays[v.Slot][off] = val
	return nil
}

// ArrayOffset computes the linear (row-major, 1-based) offset of an array
// definition under checked arithmetic.
func (o *oracle) ArrayOffset(ref *ir.Ref) (int64, error) {
	v := ref.Var
	off := int64(0)
	stride := int64(1)
	for k := 0; k < v.Rank(); k++ {
		x, err := o.EvalInt(ref.Ast.Subs[k])
		if err != nil {
			return 0, err
		}
		if x < 1 || x > v.Dims[k] {
			return 0, fmt.Errorf("line %d: %s subscript %d out of bounds: %d (extent %d)",
				ref.Stmt.Line, v.Name, k+1, x, v.Dims[k])
		}
		term, ok := mulChecked(x-1, stride)
		if !ok {
			return 0, &NumericError{Line: ref.Stmt.Line, What: v.Name + " offset", Val: float64(x)}
		}
		if off, ok = addChecked(off, term); !ok {
			return 0, &NumericError{Line: ref.Stmt.Line, What: v.Name + " offset", Val: float64(x)}
		}
		if stride, ok = mulChecked(stride, v.Dims[k]); !ok {
			return 0, &NumericError{Line: ref.Stmt.Line, What: v.Name + " stride", Val: float64(v.Dims[k])}
		}
	}
	return off, nil
}

func (o *oracle) TripCount(l *ir.Loop) (int64, error) {
	lo, err := o.EvalInt(l.Lo.Expr)
	if err != nil {
		return 0, err
	}
	hi, err := o.EvalInt(l.Hi.Expr)
	if err != nil {
		return 0, err
	}
	step := int64(1)
	if l.Step != nil {
		step, err = o.EvalInt(l.Step)
		if err != nil {
			return 0, err
		}
	}
	if step == 0 {
		return 0, fmt.Errorf("zero step in %s-loop at line %d", l.Index.Name, l.Line)
	}
	n := (hi-lo)/step + 1
	if n < 0 {
		n = 0
	}
	return n, nil
}

// AccumulatePrivate is the privatized value semantics of one
// reduction-update instance.
func (o *oracle) AccumulatePrivate(st *ir.Stmt, c *spmd.Combine) error {
	val, err := o.Eval(c.Red.Data)
	if err != nil {
		return err
	}
	if c.Red.Negate {
		val = -val
	}
	acc := 0
	if c.Red.DataRef != nil {
		set, err := o.OwnerSet(c.Red.DataRef)
		if err != nil {
			return err
		}
		if p := set.First(); p >= 0 {
			acc = p
		}
	}
	off := int64(0)
	if st.Lhs.Var.IsArray() {
		if off, err = o.ArrayOffset(st.Lhs); err != nil {
			return err
		}
	}
	tab := o.partials[c.AccIndex]
	i := int64(acc)*o.partialElems[c.AccIndex] + off
	tab[i] = c.Red.Op.Fold(tab[i], val)
	return nil
}

// ---------------------------------------------------------------------------
// Execution sets

func (o *oracle) ExecSet(sp *spmd.StmtPlan) (dist.ProcSet, error) {
	switch sp.Kind {
	case spmd.ExecOwner:
		return o.OwnerSet(sp.OwnerRef)
	case spmd.ExecPattern:
		return o.PatternSet(sp.Scalar.Pattern, nil), nil
	case spmd.ExecUnion:
		return o.UnionSet(sp.Stmt.Loop), nil
	}
	return dist.AllProcs(o.grid), nil
}

func (o *oracle) OwnerSet(ref *ir.Ref) (dist.ProcSet, error) {
	v := ref.Var
	idx := make([]int64, len(ref.Ast.Subs))
	for k, e := range ref.Ast.Subs {
		x, err := o.EvalInt(e)
		if err != nil {
			return dist.ProcSet{}, err
		}
		idx[k] = x
	}
	if ap := o.priv[v.Slot]; ap != nil && ir.Encloses(ap.Loop, ref.Stmt.Loop) {
		return o.privOwnerSet(ap, idx)
	}
	am := o.dyn[v.Slot]
	if am == nil {
		return dist.AllProcs(o.grid), nil
	}
	return am.Owner(o.grid, idx), nil
}

func (o *oracle) privOwnerSet(ap *core.ArrayPrivatization, idx []int64) (dist.ProcSet, error) {
	g := o.grid
	set := dist.AllProcs(g)
	tgt, err := o.OwnerSet(ap.Target)
	if err != nil {
		return dist.ProcSet{}, err
	}
	for d := 0; d < g.Rank(); d++ {
		if ap.PrivGrid[d] {
			if c, ok := tgt.Fixed(d); ok {
				set = set.WithDim(d, c)
			}
		}
	}
	for dim, ax := range ap.Axes {
		if ax.Distributed {
			set = set.WithDim(ax.GridDim, ax.OwnerDim(idx[dim], g.Shape[ax.GridDim]))
		}
	}
	return set, nil
}

func (o *oracle) PatternSet(pat dist.OwnerPattern, widen []*ir.Loop) dist.ProcSet {
	g := o.grid
	set := dist.AllProcs(g)
	for d := range pat.Dims {
		dp := pat.Dims[d]
		if dp.Repl {
			continue
		}
		wide := false
		for _, l := range widen {
			if dp.Sub.VariesIn(l) {
				wide = true
				break
			}
		}
		if wide {
			continue
		}
		pos, err := o.EvalAffine(dp.Sub)
		if err != nil {
			continue // undefined position: leave the dimension wide
		}
		ax := dist.AxisMap{Distributed: true, GridDim: d, Kind: dp.Kind,
			Offset: dp.Offset, Extent: dp.Extent, Block: dp.Block}
		set = set.WithDim(d, ax.OwnerDim(pos, g.Shape[d]))
	}
	return set
}

func (o *oracle) UnionSet(l *ir.Loop) dist.ProcSet {
	g := o.grid
	if l == nil {
		return dist.AllProcs(g)
	}
	if o.unionEpoch[l.ID] == o.epoch {
		return o.unionCache[l.ID]
	}
	part := o.unionPart[l.ID]
	if part == nil {
		part = o.unionContribs(l)
		o.unionPart[l.ID] = part
	}
	have := false
	var u dist.ProcSet
	for i := range part {
		set := o.PatternSet(part[i].pat, part[i].widen)
		if !have {
			u, have = set, true
		} else {
			u = u.Union(set)
		}
	}
	if !have {
		u = dist.AllProcs(g)
	}
	o.unionCache[l.ID] = u
	o.unionEpoch[l.ID] = o.epoch
	return u
}

func (o *oracle) unionContribs(l *ir.Loop) []oracleContrib {
	var innerList []*ir.Loop
	for _, ll := range o.Prog.Res.Prog.Loops {
		if ll != l && ir.Encloses(l, ll) {
			innerList = append(innerList, ll)
		}
	}
	part := []oracleContrib{}
	for _, st := range o.Prog.Res.Prog.Stmts {
		if st.Kind != ir.SAssign || !ir.Encloses(l, st.Loop) {
			continue
		}
		sp := o.Prog.PlanOf(st)
		switch sp.Kind {
		case spmd.ExecOwner:
			part = append(part, oracleContrib{pat: o.Prog.Res.RefPattern(sp.OwnerRef), widen: innerList})
		case spmd.ExecPattern:
			part = append(part, oracleContrib{pat: sp.Scalar.Pattern, widen: innerList})
		}
	}
	return part
}

// ---------------------------------------------------------------------------
// Communication decisions

func (o *oracle) InstanceOp(req *comm.Requirement, sp *spmd.StmtPlan, elemBytes int64) (InstanceOp, error) {
	dst, err := o.ExecSet(sp)
	if err != nil {
		return InstanceOp{}, err
	}
	var src dist.ProcSet
	if req.Use.Var.IsArray() {
		src, err = o.OwnerSet(req.Use)
		if err != nil {
			return InstanceOp{}, err
		}
	} else {
		src = o.PatternSet(req.SrcPat, nil)
	}
	if src.CoversSet(dst) {
		return InstanceOp{Skip: true}, nil
	}
	from, single := src.IsSingle()
	if !single {
		from = src.First()
	}
	return InstanceOp{From: from, Dst: dst, Bytes: elemBytes}, nil
}

func (o *oracle) VectorizedOp(req *comm.Requirement, elemBytes int64) (VectorizedOp, error) {
	g := o.grid
	trips := int64(1)
	for _, l := range req.Hoisted {
		if !RefVariesIn(req.Use, l) {
			continue
		}
		t, err := o.TripCount(l)
		if err != nil {
			return VectorizedOp{}, err
		}
		var ok bool
		if trips, ok = mulChecked(trips, t); !ok {
			return VectorizedOp{}, &NumericError{Line: req.Stmt.Line,
				What: "aggregated trip count", Val: float64(t)}
		}
	}
	if trips <= 0 {
		return VectorizedOp{Kind: VecSkip}, nil
	}
	srcEval := o.PatternSet(req.SrcPat, req.Hoisted)
	dstEval := o.PatternSet(req.DstPat, req.Hoisted)
	if o.vectorizedCovered(req) {
		return VectorizedOp{Kind: VecSkip}, nil
	}
	bytesTotal, ok := mulChecked(trips, elemBytes)
	if !ok {
		return VectorizedOp{}, &NumericError{Line: req.Stmt.Line,
			What: "aggregated transfer size", Val: float64(trips)}
	}
	switch req.Class {
	case dist.CommShift:
		perProc := int64(0)
		for d := range req.SrcPat.Dims {
			dp := req.SrcPat.Dims[d]
			delta, _ := dp.Shift(req.DstPat.Dims[d])
			if delta == 0 {
				continue
			}
			if delta < 0 {
				delta = -delta
			}
			if dp.Kind == ast.DistBlock {
				if delta > dp.Block {
					delta = dp.Block
				}
				share := trips * delta / max(dp.Extent, 1)
				perProc += max(share, delta) * elemBytes
			} else {
				perProc += bytesTotal / int64(g.Size())
			}
		}
		if perProc == 0 {
			perProc = elemBytes
		}
		return VectorizedOp{Kind: VecShift, PerProc: perProc,
			Participants: dist.AllProcs(g)}, nil
	case dist.CommBcast:
		from := 0
		if procs := srcEval.Procs(); len(procs) > 0 {
			from = procs[0]
		}
		return VectorizedOp{Kind: VecBcast, From: from, Dst: dstEval, Bytes: bytesTotal}, nil
	default:
		return VectorizedOp{Kind: VecExchange, Src: srcEval, Dst: dstEval, Bytes: bytesTotal}, nil
	}
}

func (o *oracle) vectorizedCovered(req *comm.Requirement) bool {
	for d := range req.SrcPat.Dims {
		sd, td := req.SrcPat.Dims[d], req.DstPat.Dims[d]
		if sd.Repl {
			continue
		}
		if td.Repl {
			return false
		}
		sp := dist.OwnerPattern{Dims: []dist.DimPattern{sd}}
		tp := dist.OwnerPattern{Dims: []dist.DimPattern{td}}
		if dist.Covers(sp, tp) {
			continue
		}
		varies := false
		for _, l := range req.Hoisted {
			if sd.Sub.VariesIn(l) || td.Sub.VariesIn(l) {
				varies = true
				break
			}
		}
		if varies {
			return false
		}
		spos, err1 := o.EvalAffine(sd.Sub)
		tpos, err2 := o.EvalAffine(td.Sub)
		if err1 != nil || err2 != nil {
			return false
		}
		if sd.Kind != td.Kind || sd.Block != td.Block || sd.Extent != td.Extent {
			return false
		}
		ax := dist.AxisMap{Distributed: true, Kind: sd.Kind, Offset: 0,
			Extent: sd.Extent, Block: sd.Block}
		n := o.grid.Shape[d]
		if ax.OwnerDim(spos+sd.Offset, n) != ax.OwnerDim(tpos+td.Offset, n) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// The walker

// oracleBackend is the Backend of an oracle walk: the same events, observed
// with the oracle's own set computations.
type oracleBackend interface {
	LoopEntry(l *ir.Loop, lp *spmd.LoopPlan) error
	LoopExit(l *ir.Loop, lp *spmd.LoopPlan) error
	Statement(st *ir.Stmt, sp *spmd.StmtPlan) error
	Redistribute(st *ir.Stmt) error
}

type oracleWalker struct {
	o *oracle
	b oracleBackend
}

// oracleWalk interprets the program over o's State by tree walking.
func oracleWalk(o *oracle, b oracleBackend) error {
	w := &oracleWalker{o: o, b: b}
	ctl, err := w.nodes(o.Prog.Res.Prog.Body)
	if err != nil {
		return err
	}
	if ctl.kind == ctlGoto {
		return &GotoEscapeError{Label: ctl.label}
	}
	return nil
}

func (w *oracleWalker) nodes(nodes []ir.Node) (control, error) {
	for i := 0; i < len(nodes); i++ {
		var ctl control
		var err error
		switch x := nodes[i].(type) {
		case *ir.Stmt:
			ctl, err = w.stmt(x)
		case *ir.If:
			ctl, err = w.ifNode(x)
		case *ir.Loop:
			ctl, err = w.loop(x)
		}
		if err != nil {
			return control{}, err
		}
		if ctl.kind == ctlGoto {
			target := -1
			for j := range nodes {
				if st, ok := nodes[j].(*ir.Stmt); ok && st.Kind == ir.SContinue && st.Label == ctl.label {
					target = j
					break
				}
			}
			if target < 0 {
				return ctl, nil
			}
			i = target
		}
	}
	return control{}, nil
}

func (w *oracleWalker) loop(l *ir.Loop) (control, error) {
	o := w.o
	if l.BoundsStmt != nil {
		if _, err := w.stmt(l.BoundsStmt); err != nil {
			return control{}, err
		}
	}
	lo, err := o.EvalInt(l.Lo.Expr)
	if err != nil {
		return control{}, err
	}
	hi, err := o.EvalInt(l.Hi.Expr)
	if err != nil {
		return control{}, err
	}
	step := int64(1)
	if l.Step != nil {
		step, err = o.EvalInt(l.Step)
		if err != nil {
			return control{}, err
		}
		if step == 0 {
			return control{}, fmt.Errorf("zero loop step at line %d", l.Line)
		}
	}
	lp := o.Prog.LoopPlanOf(l)
	if lp != nil {
		o.indices[l.Index.Slot] = lo
		if err := w.b.LoopEntry(l, lp); err != nil {
			return control{}, err
		}
	}
	for v := lo; (step > 0 && v <= hi) || (step < 0 && v >= hi); v += step {
		o.indices[l.Index.Slot] = v
		o.epoch++
		ctl, err := w.nodes(l.Body)
		if err != nil {
			return control{}, err
		}
		if ctl.kind == ctlGoto {
			return ctl, nil
		}
	}
	if lp != nil {
		if err := w.b.LoopExit(l, lp); err != nil {
			return control{}, err
		}
	}
	return control{}, nil
}

func (w *oracleWalker) ifNode(ifn *ir.If) (control, error) {
	if _, err := w.stmt(ifn.Cond); err != nil {
		return control{}, err
	}
	c, err := w.o.Eval(ifn.Cond.Cond)
	if err != nil {
		return control{}, err
	}
	if c != 0 {
		return w.nodes(ifn.Then)
	}
	return w.nodes(ifn.Else)
}

func (w *oracleWalker) stmt(st *ir.Stmt) (control, error) {
	o := w.o
	sp := o.Prog.PlanOf(st)
	if err := w.b.Statement(st, sp); err != nil {
		return control{}, err
	}
	switch st.Kind {
	case ir.SAssign:
		if o.PrivatizedActive(sp.Combine) {
			return control{}, o.AccumulatePrivate(st, sp.Combine)
		}
		val, err := o.Eval(st.Rhs)
		if err != nil {
			return control{}, err
		}
		if err := o.Store(st.Lhs, val); err != nil {
			return control{}, err
		}
	case ir.SIfGoto:
		c, err := o.Eval(st.Cond)
		if err != nil {
			return control{}, err
		}
		if c != 0 {
			return control{kind: ctlGoto, label: st.Label}, nil
		}
	case ir.SGoto:
		return control{kind: ctlGoto, label: st.Label}, nil
	case ir.SRedistribute:
		if err := o.ApplyRedistribute(st); err != nil {
			return control{}, err
		}
		if err := w.b.Redistribute(st); err != nil {
			return control{}, err
		}
	}
	return control{}, nil
}

// ---------------------------------------------------------------------------
// The reference simulation

// oracleSim charges the simulated machine from an oracle walk the way
// internal/sim's interp does on a fault-free, untraced, unprofiled run.
type oracleSim struct {
	o         *oracle
	mach      *machine.Machine
	params    machine.Params
	instances int64
}

func (in *oracleSim) elemBytes() int64 { return int64(in.params.ElemBytes) }

func (in *oracleSim) LoopEntry(l *ir.Loop, lp *spmd.LoopPlan) error {
	for _, req := range lp.Hoisted {
		if sp := in.o.Prog.PlanOf(req.Stmt); sp != nil &&
			in.o.PrivatizedActive(sp.Combine) && sp.Combine.Mapping == nil {
			continue
		}
		op, err := in.o.VectorizedOp(req, in.elemBytes())
		if err != nil {
			return err
		}
		switch op.Kind {
		case VecShift:
			in.mach.Shift(op.Participants, op.PerProc)
		case VecBcast:
			in.mach.Multicast(op.From, op.Dst, op.Bytes)
		case VecExchange:
			in.mach.Exchange(op.Src, op.Dst, op.Bytes)
		}
	}
	return nil
}

func (in *oracleSim) LoopExit(l *ir.Loop, lp *spmd.LoopPlan) error {
	all := dist.AllProcs(in.o.grid)
	for _, c := range lp.Combines {
		if in.o.PrivatizedActive(c) {
			elems := in.o.PartialElems(c)
			if _, err := in.o.MergePartials(c); err != nil {
				return err
			}
			in.mach.TreeMerge(all, elems*in.elemBytes(), in.o.Prog.NProcs())
			continue
		}
		if c.Mapping == nil {
			continue
		}
		in.mach.Reduce(in.o.PatternSet(c.Mapping.Pattern, nil), in.elemBytes())
	}
	for _, m := range lp.CopyOuts {
		src := in.o.PatternSet(m.Pattern, nil)
		if src.Count() == all.Count() {
			continue
		}
		in.mach.Multicast(src.First(), all, in.elemBytes())
	}
	return nil
}

// Statement counts the instance once it is charged, as the production side
// counts it where it closes (loweredSim): one whose sets cannot be evaluated
// is not counted by either.
func (in *oracleSim) Statement(st *ir.Stmt, sp *spmd.StmtPlan) error {
	err := in.charge(sp)
	if err == nil {
		in.instances++
	}
	return err
}

func (in *oracleSim) charge(sp *spmd.StmtPlan) error {
	flops := float64(sp.Flops) * in.params.FlopTime
	if in.o.PrivatizedActive(sp.Combine) && sp.Combine.Mapping == nil {
		var execSet dist.ProcSet
		var err error
		if sp.Combine.Red.DataRef != nil {
			execSet, err = in.o.OwnerSet(sp.Combine.Red.DataRef)
		} else {
			execSet, err = in.o.ExecSet(sp)
		}
		if err != nil {
			return err
		}
		if sp.Flops > 0 {
			in.mach.Compute(execSet, flops)
		}
		return nil
	}
	for _, req := range sp.PerInstance {
		op, err := in.o.InstanceOp(req, sp, in.elemBytes())
		if err != nil {
			return err
		}
		if in.params.GuardTime > 0 {
			in.mach.Compute(dist.AllProcs(in.o.grid), in.params.GuardTime)
		}
		if op.Skip {
			continue
		}
		if to, one := op.Dst.IsSingle(); one {
			in.mach.Send(op.From, to, op.Bytes)
		} else {
			in.mach.Multicast(op.From, op.Dst, op.Bytes)
		}
	}
	execSet, err := in.o.ExecSet(sp)
	if err != nil {
		return err
	}
	if sp.Flops > 0 {
		in.mach.Compute(execSet, flops)
	}
	return nil
}

func (in *oracleSim) Redistribute(st *ir.Stmt) error {
	per := in.o.RedistBytesPerProc(st, in.elemBytes())
	in.mach.AllToAll(dist.AllProcs(in.o.grid), per)
	return nil
}

// OracleResult is the outcome of one reference simulation — or, beside an
// error, the point the run had reached when it failed: the statement instances
// charged, what the machine had been charged and the memory image left behind.
type OracleResult struct {
	Time      float64
	Clocks    []float64 // by processor: a charge on the wrong one need not move Time
	Stats     machine.Stats
	Instances int64
	Census    Census // LoweredSimulate only
	Scalars   map[string]float64
	Arrays    map[string][]float64
}

// OracleSimulate runs the program through the tree-walking reference under
// the SP2 cost model: what internal/sim computed before statement bodies
// and owner sets were lowered. Errors come back bare (internal/sim brands
// its own with a "sim: " prefix), beside the state the failed run left.
func OracleSimulate(p *spmd.Program, reduce core.ReduceMode) (*OracleResult, error) {
	st, err := NewState(p)
	if err != nil {
		return nil, err
	}
	if err := st.ConfigureReduce(reduce, Budget{}); err != nil {
		return nil, err
	}
	params := machine.SP2()
	in := &oracleSim{o: newOracle(st), mach: machine.New(p.Grid(), params), params: params}
	err = oracleWalk(in.o, in)
	res := &OracleResult{Time: in.mach.Time(), Clocks: in.mach.Clock, Stats: in.mach.Stats, Instances: in.instances}
	res.Scalars, res.Arrays = st.Export()
	return res, bareGotoEscape(err)
}

func bareGotoEscape(err error) error {
	var ge *GotoEscapeError
	if errors.As(err, &ge) {
		return fmt.Errorf("goto %d escaped the program", ge.Label)
	}
	return err
}

// Strip is the longest strip a swept run is closed by.
const Strip = strip

// Census counts the statement instances of a production walk by the path
// that ran them — in a quiet owner run, in a loud one, on the general walk —
// and the runs of either kind; of the quiet instances, those whose run was
// swept through its kernel and those whose kernel ran them in iteration order
// (the dependence test refused the sweep); the rest lie in loops that have no
// kernel, and are run by their programs. Strips counts the operations that
// closed the quiet iterations (schedule.iterations): a strip of up to Strip where
// the kernel runs them, one iteration where the programs do.
type Census struct {
	Quiet, Loud, General int64
	QuietRuns, LoudRuns  int64
	Swept, Ordered       int64
	Strips               int64
}

// loweredSim is the production side of the same comparison: the accountant,
// with nothing that can end a run early. It counts the statement instances in
// the charges, as each closes with a compute (the charge seam) — the schedule
// itself is the Backend, so the walk takes the path production takes.
type loweredSim struct {
	Unbound
	st     *State
	census Census
	stamp  uint64 // of the last owner run seen
}

func (*loweredSim) CrashSite() error { return nil }
func (*loweredSim) Tick() error      { return nil }

// inRun counts the owner run in flight the first time it is seen.
func (l *loweredSim) inRun(runs *int64) {
	if l.stamp != l.st.stamp {
		l.stamp = l.st.stamp
		*runs++
	}
}

// charge counts a compute charged on its own, and a strip's instances: its
// charges are those of n iterations in one operation, on the machine's strip
// path — which the oracle's clocks then hold to the bit.
func (l *loweredSim) charge(method string, args ...any) {
	switch method {
	case "Charge":
		if args[0].(Charge).Req != nil {
			return
		}
		if l.st.run != 0 {
			l.census.Loud++
			l.inRun(&l.census.LoudRuns)
		} else {
			l.census.General++
		}
	case "Charges":
		n := args[1].(int64)
		for _, c := range args[0].([]Charge) {
			if c.Req != nil {
				continue
			}
			l.census.Quiet += n
			switch l.st.swept {
			case 1:
				l.census.Swept += n
			case -1:
				l.census.Ordered += n
			}
		}
		l.census.Strips++
		l.inRun(&l.census.QuietRuns)
	}
}

// LoweredSimulate runs the program through the production walker, schedule
// and accountant (what internal/sim runs, less its limits and reports) and
// returns what OracleSimulate does — including, beside an error, the state the
// failed run left, which internal/sim does not hand out.
func LoweredSimulate(p *spmd.Program, reduce core.ReduceMode) (*OracleResult, error) {
	st, err := NewState(p)
	if err != nil {
		return nil, err
	}
	if err := st.ConfigureReduce(reduce, Budget{}); err != nil {
		return nil, err
	}
	acct := NewAccount(st, RunOptions{Params: machine.SP2()})
	ops := &loweredSim{st: st}
	chargeSeam = ops.charge
	err = Run(st, ops, Meter{Account: acct}, acct.elem(), nil)
	chargeSeam = nil
	c := ops.census
	res := &OracleResult{Time: acct.M.Time(), Clocks: acct.M.Clock, Stats: acct.M.Stats,
		Instances: c.Quiet + c.Loud + c.General, Census: c}
	res.Scalars, res.Arrays = st.Export()
	return res, bareGotoEscape(err)
}

// InRun reports whether the walk is inside an owner run (for tests that
// observe the walk from a Backend).
func (s *State) InRun() bool { return s.run != 0 }
