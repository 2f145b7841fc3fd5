package spmd

import (
	"fmt"

	"phpf/internal/ast"
	"phpf/internal/dist"
	"phpf/internal/ir"
)

// ShrinkInfo describes a loop whose bounds shrink to each processor's own
// iterations (the paper's §4; internal/eval's workers walk only those): every
// body statement executes where the loop index, plus a bounded offset, lies
// along GridDim under one distribution.
type ShrinkInfo struct {
	Loop *ir.Loop
	// The distribution of iterations: GridDim is the grid dimension they are
	// partitioned over, Kind and Block how; iteration v is at position
	// v+Offset, give or take MaxSkew — the halo by which a BLOCK processor
	// extends its local range (0 under CYCLIC, where the body's statements
	// share one Offset).
	dist.AxisMap
	MaxSkew int64
	// WritesScalar: the body assigns a scalar.
	WritesScalar bool
}

// LocalRange returns the iterations, numbered 0..n-1, of the loop lo, lo+step,
// … that coordinate coord of nproc along GridDim runs: count from first,
// stride apart — every one where it owns a position of a body statement (its
// BLOCK widened by the halo, every nproc-th under CYCLIC), or all n where
// that is not one progression (a CYCLIC halo, positions clamped onto 0).
func (s *ShrinkInfo) LocalRange(coord, nproc int, lo, step, n int64) (first, stride, count int64) {
	if n == 0 || step >= 1<<31 || step <= -1<<31 { // (keeps step·nproc in int64)
		return 0, 1, n
	}
	// Iteration t is at the 0-based position OwnerDim takes, base + t·step.
	base := lo + s.Offset - 1
	lowest := base + min(0, (n-1)*step)
	switch {
	case s.Kind == ast.DistBlock && s.Block > 0:
		// The coordinate's positions, as OwnerDim clamps them: coordinate 0
		// takes every one below its block, the last every one above.
		from, to := int64(coord)*s.Block-s.MaxSkew, int64(coord+1)*s.Block-1+s.MaxSkew
		a, first, last := max(step, -step), int64(0), n-1 // in position order
		if coord > 0 && from > lowest {
			first = (from - lowest + a - 1) / a
		}
		if coord < nproc-1 {
			if to < lowest {
				return 0, 1, 0
			}
			last = min(last, (to-lowest)/a)
		}
		if step < 0 {
			first, last = n-1-last, n-1-first
		}
		return first, 1, max(0, last-first+1)
	case s.Kind == ast.DistCyclic && s.MaxSkew == 0 && (coord > 0 || lowest >= 0):
		// Iteration t is the coordinate's when base + t·step ≡ coord (mod
		// nproc): every nproc/g-th from the first, g = gcd(|step|, nproc).
		p := int64(nproc)
		for t := int64(0); t < p && t < n; t++ {
			if ((base+t*step)%p+p)%p == int64(coord) {
				g, b := p, max(step, -step)
				for b != 0 {
					g, b = b, g%b
				}
				return t, p / g, (n-1-t)/(p/g) + 1
			}
		}
		return 0, 1, 0
	}
	return 0, 1, n
}

// ShrinkableLoops returns, by Loop.ID, the loops whose bounds shrink (nil for
// the others), settled once per program. Nothing in an iteration may involve a
// processor outside its execution sets (DESIGN.md §12): (a) every statement's
// set follows the index, position 1·index + c along one grid dimension, on an
// array no REDISTRIBUTE remaps; (b) no IF or GOTO; (c) no nested loop with
// hoisted communication, combines or copy-outs; (d) no reduction update; (e)
// nothing computed everywhere; (f) no per-instance communication; (g) no
// nested bound varying with the index; (h) under CYCLIC, one offset. The slice
// is the program's: callers must not modify it.
func (p *Program) ShrinkableLoops() []*ShrinkInfo { return p.procs().shrink }

func (p *Program) shrinkLoop(l *ir.Loop, pr *procInfo) *ShrinkInfo {
	for _, in := range p.Res.Prog.Loops {
		if lp := p.LoopPlanOf(in); in != l && ir.Encloses(l, in) &&
			(len(lp.Hoisted)+len(lp.Combines)+len(lp.CopyOuts) > 0 || // (c)
				in.Lo.VariesIn(l) || in.Hi.VariesIn(l) || in.StepConst == 0) { // (g)
			return nil
		}
	}
	var info *ShrinkInfo
	var lowSkew, highSkew int64
	var unions []*ir.Loop
	scalar := false
	owned := map[*ir.Loop]bool{} // the loops an owner-driven statement is in
	for _, st := range p.Res.Prog.Stmts {
		if !ir.Encloses(l, st.Loop) || st.Kind == ir.SContinue || st.Kind == ir.SLoopBounds && len(p.PlanOf(st).PerInstance) == 0 {
			continue // no value semantics, no flops, no message
		}
		sp := p.PlanOf(st)
		if st.Kind != ir.SAssign || len(sp.PerInstance) > 0 || sp.Combine != nil ||
			p.Res.ReducePlan.Of(st) != nil || pr.everywhere[st.ID] { // (b), (f), (d), (e)
			return nil
		}
		scalar = scalar || !st.Lhs.Var.IsArray()
		var pat dist.OwnerPattern
		switch {
		case sp.Kind == ExecOwner && !pr.moved[sp.OwnerRef.Var]:
			pat = p.Res.RefPattern(sp.OwnerRef)
		case sp.Kind == ExecPattern:
			pat = sp.Scalar.Pattern
		case sp.Kind == ExecUnion: // the union of the owner statements under st.Loop
			unions = append(unions, st.Loop)
			continue
		default:
			return nil // (a), (f)
		}
		// (a): the position along the dimension is the loop index plus a constant.
		var dp *dist.DimPattern
		for k := range pat.Dims {
			if d := &pat.Dims[k]; !d.Repl && d.Sub.OK && len(d.Sub.Terms) == 1 && d.Sub.CoefOf(l) == 1 &&
				(info == nil || k == info.GridDim && d.Kind == info.Kind && d.Block == info.Block) {
				dp = d
				break
			}
		}
		if dp == nil {
			return nil
		}
		skew := dp.Sub.Const + dp.Offset
		if info == nil {
			info = &ShrinkInfo{Loop: l, AxisMap: dp.AxisMap}
			lowSkew, highSkew = skew, skew
		}
		lowSkew, highSkew = min(lowSkew, skew), max(highSkew, skew)
		for in := st.Loop; in != l.Parent; in = in.Parent {
			owned[in] = true
		}
	}
	for _, u := range unions {
		if !owned[u] {
			return nil // a union of nothing is every processor
		}
	}
	switch {
	case info == nil || info.Kind == ast.DistCyclic && lowSkew != highSkew: // (h)
		return nil
	case info.Kind == ast.DistCyclic:
		info.Offset = lowSkew
	default:
		info.Offset, info.MaxSkew = 0, max(highSkew, -lowSkew)
	}
	info.WritesScalar = scalar
	return info
}

func (s *ShrinkInfo) String() string {
	return fmt.Sprintf("%s-loop shrinks over grid dim %d (%s, block %d, halo %d)",
		s.Loop.Index.Name, s.GridDim, s.Kind, s.Block, s.MaxSkew)
}
