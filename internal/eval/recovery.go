// Checkpoint and recovery sizing: the accountant charges these sizes to the
// cost model, and the concurrent executor uses the same itemization to drive
// its real refetch protocol — which is how the two stay message-for-message
// aligned.
package eval

import (
	"phpf/internal/core"
	"phpf/internal/ir"
)

// CheckpointBytes returns each processor's live state size: its partition
// of every (dynamically mapped) array plus one element per scalar variable,
// at elemBytes bytes per element. When the run privatizes reductions, each
// processor's own partial row of every active partial table is live state too
// — an in-flight private accumulation must survive a restart.
func CheckpointBytes(s *State, elemBytes int64) []int64 {
	g := s.Grid()
	out := make([]int64, g.Size())
	var scalarBytes int64
	for _, v := range s.Prog.Res.Prog.VarList {
		if v.IsArray() || v.IsLoopIndex {
			continue
		}
		scalarBytes += elemBytes
	}
	for acc, t := range s.partials {
		if t != nil {
			scalarBytes += s.partialElems[acc] * elemBytes
		}
	}
	for p := range out {
		coords := g.Coords(p)
		b := scalarBytes
		for _, am := range s.dyn {
			if am == nil {
				continue
			}
			b += am.LocalElems(g, coords) * elemBytes
		}
		out[p] = b
	}
	return out
}

// RefetchItem is one unit of recovery communication for a restarted
// processor: either that processor's partition of a non-replicated array
// (Elems > 1 possible) or one refetch-classified scalar (Elems == 1).
type RefetchItem struct {
	Var   *ir.Var
	Elems int64
	Bytes int64
}

// RefetchItems lists the recovery communication for restarted processor p
// under the current dynamic mapping, in deterministic (declaration) order:
// non-replicated array partitions first, then the scalars some processor
// owns. Replicated copies — the paper's replication
// mapping — restore locally at zero communication cost.
func RefetchItems(s *State, p int, elemBytes int64) []RefetchItem {
	g := s.Grid()
	coords := g.Coords(p)
	var out []RefetchItem
	for _, v := range s.Prog.Res.Prog.VarList {
		if !v.IsArray() {
			continue
		}
		am := s.dyn[v.Slot]
		if am == nil || am.FullyReplicated() {
			continue // replicated: every survivor holds a copy
		}
		if n := am.LocalElems(g, coords); n > 0 {
			out = append(out, RefetchItem{Var: v, Elems: n, Bytes: n * elemBytes})
		}
	}
	// A scalar with any aligned or reduction-mapped definition has a uniquely
	// owned live copy that must be refetched; replicated and
	// privatized-without-alignment scalars restore locally.
	owned := map[*ir.Var]bool{}
	for _, m := range s.Prog.Res.Scalars {
		if m.Kind == core.ScalarAligned || m.Kind == core.ScalarReduction {
			owned[m.Def.Var] = true
		}
	}
	for _, v := range s.Prog.Res.Prog.VarList {
		if !v.IsArray() && owned[v] {
			out = append(out, RefetchItem{Var: v, Elems: 1, Bytes: elemBytes})
		}
	}
	return out
}
