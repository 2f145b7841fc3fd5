package spmd

import (
	"fmt"

	"phpf/internal/ast"
	"phpf/internal/dist"
	"phpf/internal/ir"
)

// ShrinkInfo describes a loop whose bounds can be shrunk to each
// processor's local iterations in the generated SPMD code: every statement
// in the body executes on an owner set whose coordinate along GridDim is
// the loop index (plus a bounded offset) under one common distribution, so
// a processor only visits the iterations that map to it.
//
// This is the paper's §4 observation ("the loop bounds can be shrunk in the
// final SPMD code"): it requires that no statement in the loop executes on
// all processors and that no communication is left inside the loop (which
// would force every processor to walk the full iteration space evaluating
// guards — the simulator's GuardTime models exactly that cost).
type ShrinkInfo struct {
	Loop *ir.Loop
	// The distribution of iterations: GridDim is the grid dimension they are
	// partitioned over, Kind, Block and Extent how (offsets are MaxSkew's).
	dist.AxisMap
	// MaxSkew is the largest |offset| between the loop index and the
	// owning position over the body's statements; processors must extend
	// their local range by this halo.
	MaxSkew int64
}

// LocalRange returns the iteration sub-range (inclusive) a processor
// coordinate executes for global bounds [lo, hi], before halo extension.
// ok is false when the coordinate has no local iterations.
func (s ShrinkInfo) LocalRange(coord, nproc int, lo, hi int64) (int64, int64, bool) {
	switch s.Kind {
	case ast.DistBlock:
		first := int64(coord)*s.Block + 1 // 1-based template position
		last := first + s.Block - 1
		first -= s.MaxSkew
		last += s.MaxSkew
		if first < lo {
			first = lo
		}
		if last > hi {
			last = hi
		}
		return first, last, first <= last
	case ast.DistCyclic:
		// Cyclic shrinking visits every nproc-th iteration; represent the
		// range bounds only (the step is nproc).
		if hi < lo {
			return 0, 0, false
		}
		return lo, hi, true
	}
	return 0, 0, false
}

// ShrinkableLoops identifies the loops whose bounds shrink. A loop
// qualifies when:
//   - every assignment in its body has an ExecOwner/ExecPattern guard whose
//     pattern determines a common grid dimension by an affine position with
//     coefficient 1 on this loop's index, and
//   - no statement in the body carries per-instance communication, and
//   - no statement executes on all processors (ExecAll) or on a dynamic
//     union (ExecUnion is acceptable: it follows the owner statements).
func (p *Program) ShrinkableLoops() map[*ir.Loop]*ShrinkInfo {
	out := map[*ir.Loop]*ShrinkInfo{}
	for _, l := range p.Res.Prog.Loops {
		if info := p.shrinkLoop(l); info != nil {
			out[l] = info
		}
	}
	return out
}

func (p *Program) shrinkLoop(l *ir.Loop) *ShrinkInfo {
	info := &ShrinkInfo{Loop: l}
	found := false
	for _, st := range p.Res.Prog.Stmts {
		if !ir.Encloses(l, st.Loop) {
			continue
		}
		sp := p.PlanOf(st)
		if len(sp.PerInstance) > 0 {
			return nil // inner-loop communication defeats shrinking
		}
		switch st.Kind {
		case ir.SGoto, ir.SContinue, ir.SLoopBounds:
			continue
		}
		var pat dist.OwnerPattern
		switch sp.Kind {
		case ExecOwner:
			pat = p.Res.RefPattern(sp.OwnerRef)
		case ExecPattern:
			pat = sp.Scalar.Pattern
		case ExecUnion:
			continue // follows the owner statements
		default:
			return nil // ExecAll in the body
		}
		// Find the grid dim whose position depends on l's index.
		matched := false
		for d := range pat.Dims {
			dp := pat.Dims[d]
			if dp.Repl || !dp.Sub.OK {
				continue
			}
			coef := dp.Sub.CoefOf(l)
			if coef == 0 {
				continue
			}
			if coef != 1 {
				return nil
			}
			if !found {
				info.AxisMap = dp.AxisMap
				info.Offset = 0
			} else if info.GridDim != d || info.Kind != dp.Kind || info.Block != dp.Block {
				return nil // statements partition over different dims
			}
			skew := dp.Sub.Const + dp.Offset
			if skew < 0 {
				skew = -skew
			}
			if skew > info.MaxSkew {
				info.MaxSkew = skew
			}
			matched = true
			found = true
		}
		if !matched {
			// The statement's owners are invariant in l: every processor
			// holding them would execute all iterations — shrinking would
			// be wrong only if ALL statements are like this; it is still
			// fine (they execute their full local set), but it contributes
			// no partitioned dimension.
			continue
		}
	}
	if !found {
		return nil
	}
	return info
}

func (s *ShrinkInfo) String() string {
	return fmt.Sprintf("%s-loop shrinks over grid dim %d (%s, block %d, halo %d)",
		s.Loop.Index.Name, s.GridDim, s.Kind, s.Block, s.MaxSkew)
}
