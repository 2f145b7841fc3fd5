// Privatized reduction execution: per-processor partial accumulators and the
// deterministic tree merge that folds them back into the real accumulator at
// loop exit. Both backends share this code, so a privatized run's values are
// bit-for-bit identical between the simulator and the concurrent executor by
// construction — the same oracle property the collective path has.
//
// Every State holds a partial table with a row per processor. The
// simulator's one State fills every row; a State bound to a processor
// (InterpretFor) fills its own row only — an update accumulates where the row
// it feeds is the processor's — and the merge ships the rows it needs: each
// hop's loser sends its row to the winner, and the merged row goes to every
// processor, which folds it into its accumulator (Ops.Move).
package eval

import (
	"math"

	"phpf/internal/ast"
	"phpf/internal/core"
	"phpf/internal/diag"
	"phpf/internal/dist"
	"phpf/internal/spmd"
)

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

// MergePartials runs the loop-exit merge of one active combine: a
// stride-doubling tree over the processor rows (hop order is a pure function
// of the processor count, so every State and every backend folds in the same
// order — the determinism the oracle relies on), then one elementwise fold of
// the surviving row into the real accumulator, then a reset of the table to
// the operator identity for any re-entry of the loop. On a State bound to a
// processor, which holds only its processor's row, ops moves the rows before
// each fold — a hop's loser's to its winner, the merged row from processor 0
// to every other — so a State folds only what it holds and received, and its
// own row, all it ever sends, stays exact. Returns how many hops the tree
// has, each a loser folded into a winner; 0 for an inactive combine.
func (s *State) MergePartials(c *spmd.Combine) (hops int, err error) { return s.mergePartials(c, nil) }

func (s *State) mergePartials(c *spmd.Combine, ops Ops) (hops int, err error) {
	if !s.PrivatizedActive(c) {
		return 0, nil
	}
	tab, elems, nprocs := s.partials[c.AccIndex], s.partialElems[c.AccIndex], s.Prog.NProcs()
	if s.proc < 0 {
		ops = nil // (every row is the State's)
	}
	for stride := 1; stride < nprocs; stride <<= 1 {
		for w := 0; w+stride < nprocs; w, hops = w+2*stride, hops+1 {
			l := w + stride
			lrow := tab[int64(l)*elems : int64(l+1)*elems]
			if ops != nil {
				if err := ops.Move(MoveMergeHop, l, dist.Single(s.grid, w), dist.Single(s.grid, l), lrow); err != nil {
					return hops, err
				}
			}
			if s.proc >= 0 && s.proc != w {
				continue // a row this State neither holds nor receives
			}
			wrow := tab[int64(w)*elems : int64(w+1)*elems]
			for e := range wrow {
				wrow[e] = c.Red.Op.Fold(wrow[e], lrow[e])
			}
		}
	}
	root := tab[:elems]
	if ops != nil {
		if err := ops.Move(MoveMerged, 0, dist.AllProcs(s.grid), dist.Single(s.grid, 0), root); err != nil {
			return hops, err
		}
	}
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
