// Privatized reduction execution: per-processor partial accumulators and the
// deterministic tree merge that folds them back into the real accumulator at
// loop exit. Both backends share this code, so a privatized run's values are
// bit-for-bit identical between the simulator and the concurrent executor by
// construction — the same oracle property the collective path has.
//
// The memory image stays replicated: every State (one in the simulator, one
// per worker in the executor) holds the full partial table of every processor
// and performs the identical accumulate and merge operations. Messages in the
// concurrent backend only verify agreement (see exec's merge protocol), which
// is the replicated-interpretation discipline the rest of the runtime uses.
package eval

import (
	"math"

	"phpf/internal/ast"
	"phpf/internal/core"
	"phpf/internal/diag"
	"phpf/internal/spmd"
)

// FNVOffset starts, and FNVAdd extends, the FNV-1a checksum the executor's
// verification messages carry: of a partial row here, of batched and
// refetched values there.
const FNVOffset uint64 = 14695981039346656037

// FNVAdd folds one 64-bit value into an FNV-1a checksum.
func FNVAdd(sum, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		sum ^= v & 0xff
		sum *= 1099511628211
		v >>= 8
	}
	return sum
}

// ConfigureReduce arms the privatized-reduction machinery for one run. It
// must be called after NewStateBudget and before Walk, with the same mode
// and budget on every State of the run (the concurrent backend's workers
// each configure their own State identically).
//
//   - ReduceCollective: no-op; every combine runs the §2.3 collective.
//   - ReduceAuto: every combine the reduceplan cleared as privatizable gets a
//     private partial table; the rest stay collective.
//   - ReducePrivatize: like auto, but any recognized reduction the reduceplan
//     could NOT clear is a configuration error (E005) — the caller asked for
//     privatization the program cannot have.
//
// Partial tables are budget-checked against the same MaxCells budget as the
// memory image (each table holds one row per processor), so a serving path
// cannot be pushed past its footprint bound by flipping the reduce knob.
func (s *State) ConfigureReduce(mode core.ReduceMode, budget Budget) error {
	s.partials = nil
	s.partialElems = nil
	if mode == core.ReduceCollective {
		return nil
	}
	if mode == core.ReducePrivatize {
		// Validate against the full plan, not the attached combines: a
		// recognized reduction with no combine (an unmapped scalar, or a
		// collective-only array reduction, whose collective reference is
		// plain owner-computes execution) is still a privatization the
		// caller demanded and cannot have.
		for _, d := range s.Prog.Res.ReducePlan.Decisions {
			if !d.Privatizable {
				return diag.Errorf("eval", diag.CodeConfig, d.Red.Stmt.Pos(),
					"reduce=privatize: reduction %s at line %d is collective-only (%s); use reduce=auto or reduce=collective",
					d.Red.Var.Name, d.Red.Stmt.Line, d.Reason)
			}
		}
	}
	if s.Prog.NumAcc == 0 {
		return nil
	}
	nprocs := int64(s.Prog.NProcs())
	// Budget the partial tables on top of the already-allocated image cells:
	// a breach must fail before anything large is allocated.
	total := int64(0)
	for _, a := range s.arrays {
		total += int64(len(a))
	}
	s.partials = make([][]float64, s.Prog.NumAcc)
	s.partialElems = make([]int64, s.Prog.NumAcc)
	for _, l := range s.Prog.Res.Prog.Loops {
		lp := s.Prog.LoopPlanOf(l)
		if lp == nil {
			continue
		}
		for _, c := range lp.Combines {
			if !c.Privatizable || c.AccIndex < 0 {
				continue
			}
			elems := int64(1)
			if v := c.Var(); v.IsArray() {
				elems = int64(len(s.arrays[v.Slot]))
			}
			cells, ok := mulChecked(elems, nprocs)
			if !ok {
				return &NumericError{Line: c.Red.Stmt.Line, What: c.Var().Name + " partial table size", Val: float64(elems)}
			}
			if total, ok = addChecked(total, cells); !ok {
				return &NumericError{Line: c.Red.Stmt.Line, What: "partial table cells", Val: float64(cells)}
			}
			if budget.MaxCells > 0 && total > budget.MaxCells {
				return diag.Errorf("eval", diag.CodeBudget, c.Red.Stmt.Pos(),
					"private partials for %s need more than %d cells (the %d-processor partial table brings the total past the MaxCells budget)",
					c.Var().Name, budget.MaxCells, nprocs)
			}
			tab := make([]float64, cells)
			if id := c.Red.Op.Identity(); id != 0 {
				for i := range tab {
					tab[i] = id
				}
			}
			s.partials[c.AccIndex] = tab
			s.partialElems[c.AccIndex] = elems
		}
	}
	return nil
}

// PrivatizedActive reports whether a combine runs privatized in this State:
// the reduceplan cleared it and ConfigureReduce armed its partial table.
func (s *State) PrivatizedActive(c *spmd.Combine) bool {
	return c != nil && c.AccIndex >= 0 && c.AccIndex < len(s.partials) && s.partials[c.AccIndex] != nil
}

// PartialElems returns the per-processor row length (in elements) of an
// active combine's partial table — what one merge hop ships on the wire.
func (s *State) PartialElems(c *spmd.Combine) int64 {
	if !s.PrivatizedActive(c) {
		return 0
	}
	return s.partialElems[c.AccIndex]
}

// MergeHop is one edge of the deterministic combining tree: Loser folds its
// partial row into Winner's and drops out. Check is the FNV-1a checksum of
// the loser's pre-merge row — the payload the concurrent backend's loser
// ships to its winner so divergent partials are caught on the wire.
type MergeHop struct {
	Winner, Loser int
	Check         uint64
}

// MergePartials runs the loop-exit merge of one active combine: a
// stride-doubling tree over the processor rows (hop order is a pure function
// of the processor count, so every State and every backend folds in the same
// order — the determinism the oracle relies on), then one elementwise fold of
// the surviving row into the real accumulator, then a reset of the table to
// the operator identity for any re-entry of the loop. Returns the tree's hop
// list for the concurrent backend's verification protocol; nil for an
// inactive combine.
func (s *State) MergePartials(c *spmd.Combine) ([]MergeHop, error) {
	if !s.PrivatizedActive(c) {
		return nil, nil
	}
	tab := s.partials[c.AccIndex]
	elems := s.partialElems[c.AccIndex]
	nprocs := s.Prog.NProcs()
	var hops []MergeHop
	for stride := 1; stride < nprocs; stride <<= 1 {
		for w := 0; w+stride < nprocs; w += 2 * stride {
			l := w + stride
			lrow := tab[int64(l)*elems : int64(l+1)*elems]
			hops = append(hops, MergeHop{Winner: w, Loser: l, Check: rowCheck(lrow)})
			wrow := tab[int64(w)*elems : int64(w+1)*elems]
			for e := range wrow {
				wrow[e] = c.Red.Op.Fold(wrow[e], lrow[e])
			}
		}
	}
	root := tab[:elems]
	v := c.Var()
	if v.IsArray() {
		arr := s.arrays[v.Slot]
		for e := range arr {
			arr[e] = c.Red.Op.Fold(arr[e], root[e])
		}
	} else {
		val := c.Red.Op.Fold(s.scalars[v.Slot], root[0])
		if v.Type == ast.Integer {
			val = math.Round(val)
		}
		s.scalars[v.Slot] = val
		s.scalarSet[v.Slot] = true
	}
	id := c.Red.Op.Identity()
	for i := range tab {
		tab[i] = id
	}
	return hops, nil
}

// rowCheck is the FNV-1a checksum of a partial row's bit patterns.
func rowCheck(row []float64) uint64 {
	h := FNVOffset
	for _, x := range row {
		h = FNVAdd(h, math.Float64bits(x))
	}
	return h
}
