package core

import (
	"sort"

	"phpf/internal/dist"
	"phpf/internal/ir"
)

// privatizeArrays implements §3: for every loop, it privatizes the arrays
// the loop's privatization facts name (ir.Loop.Privatizes: a NEW clause, a
// NODEPS directive implying memory-based dependences on written arrays, or
// what the autopriv pass inferred — under the privatization mode, which that
// pass alone applies): fully when the alignment target is valid throughout
// the loop, partially (partition + privatize) otherwise.
func (a *analyzer) privatizeArrays() {
	for _, L := range a.prog.Loops {
		var cands []*ir.Var
		for _, v := range a.prog.VarList {
			if ok, _ := L.Privatizes(v); ok && v.IsArray() && a.res.Arrays[v] == nil {
				cands = append(cands, v)
			}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].Name < cands[j].Name })
		for _, v := range cands {
			if ap := a.privatizeArray(v, L); ap != nil {
				a.res.Arrays[v] = ap
			}
		}
	}
}

// privatizeArray attempts to privatize array c with respect to loop L.
func (a *analyzer) privatizeArray(c *ir.Var, L *ir.Loop) *ArrayPrivatization {
	target := a.selectArrayTarget(c, L)
	if target == nil {
		return nil
	}
	g := a.m.Grid
	ap := &ArrayPrivatization{
		Var:      c,
		Loop:     L,
		Target:   target,
		PrivGrid: make([]bool, g.Rank()),
		Axes:     make([]dist.AxisMap, c.Rank()),
	}

	tm := a.m.Arrays[target.Var]
	if tm == nil {
		return nil
	}

	// Full privatization: valid when the target's alignment information is
	// well-defined throughout L.
	if alignLevel(a.m, target) <= L.Level {
		for _, ax := range tm.Axes {
			if ax.Distributed {
				ap.PrivGrid[ax.GridDim] = true
			}
		}
		return ap
	}

	if !a.opts.PartialPrivatization {
		return nil
	}

	// Partial privatization (§3.2): per distributed dimension of the
	// target, privatize along grid dimensions whose subscript is
	// well-defined throughout L; partition the others by matching the
	// corresponding dimension of c.
	for tdim, tax := range tm.Axes {
		if !tax.Distributed {
			continue
		}
		lvl := ir.SubscriptAlignLevel(target.Subs[tdim], target.Stmt)
		if lvl <= L.Level {
			ap.PrivGrid[tax.GridDim] = true
			continue
		}
		cdim, offAdj, ok := a.matchPartitionDim(c, L, target.Subs[tdim])
		if !ok {
			return nil
		}
		ap.Axes[cdim] = tax
		ap.Axes[cdim].Offset += offAdj
		ap.Partial = true
	}
	if !ap.Partial {
		return nil
	}
	return ap
}

// selectArrayTarget traverses the uses of c within L and selects a consumer
// alignment target (the lhs reference of the using statement), preferring
// partitioned references traversed in inner loops — the same heuristic as
// for scalars. Seemingly reached uses outside L are spurious (NEW asserts
// per-iteration lifetime) and ignored.
func (a *analyzer) selectArrayTarget(c *ir.Var, L *ir.Loop) *ir.Ref {
	var best candidate
	for _, st := range a.prog.Stmts {
		if st.Kind != ir.SAssign || !ir.Encloses(L, st.Loop) {
			continue
		}
		usesC := false
		for _, u := range st.Uses {
			if u.Var == c && !u.InSubscript {
				usesC = true
			}
		}
		if !usesC || !st.Lhs.Var.IsArray() || st.Lhs.Var == c {
			continue
		}
		a.offer(&best, st.Lhs, st, st)
	}
	return best.ref
}

// matchPartitionDim finds the dimension of c whose subscripts at definition
// sites within L have the same loop terms as the target subscript tsub
// (ir.Affine.Delta: the consumer and producer sit in different loop nests, so
// terms are matched by index variable), so that partitioning that dimension
// co-locates c's elements with the target. Returns the dimension, the
// constant offset adjustment (target const minus def const), and whether a
// match was found.
func (a *analyzer) matchPartitionDim(c *ir.Var, L *ir.Loop, tsub ir.Affine) (int, int64, bool) {
	for _, st := range a.prog.Stmts {
		if st.Kind != ir.SAssign || st.Lhs.Var != c || !ir.Encloses(L, st.Loop) {
			continue
		}
		for dim, sub := range st.Lhs.Subs {
			if off, ok := sub.Delta(tsub); ok && len(sub.Terms) > 0 {
				return dim, off, true
			}
		}
	}
	return 0, 0, false
}
