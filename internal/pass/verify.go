package pass

import (
	"fmt"
	"slices"

	"phpf/internal/dataflow"
	"phpf/internal/ir"
	"phpf/internal/ssa"
)

// VerifyUnit checks the structural invariants of every structure currently
// built on the unit (non-nil: one a rewrite dropped is being rebuilt and is
// skipped) and returns the violations found (nil when the unit is sound).
// The checks:
//
//	CFG:         block IDs are dense and consistent, successor/predecessor
//	             edges are symmetric, entry has no predecessors, every loop
//	             registered a header block, header blocks belong to their loop.
//	SSA:         phi arity matches the predecessor count, phi arguments are
//	             non-nil for reachable predecessors and share the phi's
//	             variable, every use's definition dominates the use
//	             (def-before-use within a block), def/use back links agree.
//	Mapping:     every distributed axis names a real grid dimension, at most
//	             one axis per grid dimension, replication flags cover exactly
//	             the untargeted grid dimensions, block sizes are positive.
func VerifyUnit(u *Unit) []error {
	var errs []error
	bad := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	if u.CFG != nil {
		verifyCFG(u, bad)
	}
	if u.SSA != nil {
		verifySSA(u, bad)
	}
	if u.Mapping != nil {
		verifyMapping(u, bad)
	}
	if u.AutoPriv != nil {
		verifyAutoPriv(u, bad)
	}
	return errs
}

func verifyCFG(u *Unit, bad func(string, ...interface{})) {
	g := u.CFG
	if g.Entry == nil || g.Exit == nil {
		bad("cfg: missing entry or exit block")
		return
	}
	inGraph := map[*ir.Block]bool{}
	for i, b := range g.Blocks {
		if b.ID != i {
			bad("cfg: block at index %d has ID %d", i, b.ID)
			return
		}
		inGraph[b] = true
	}
	if !inGraph[g.Entry] || !inGraph[g.Exit] {
		bad("cfg: entry or exit block not in block list")
	}
	if len(g.Entry.Preds) != 0 {
		bad("cfg: entry block B%d has %d predecessors", g.Entry.ID, len(g.Entry.Preds))
	}
	count := func(list []*ir.Block, b *ir.Block) int {
		n := 0
		for _, x := range list {
			if x == b {
				n++
			}
		}
		return n
	}
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if !inGraph[s] {
				bad("cfg: B%d has successor outside the graph", b.ID)
				continue
			}
			if count(b.Succs, s) != count(s.Preds, b) {
				bad("cfg: edge B%d->B%d asymmetric (succ count %d, pred count %d)",
					b.ID, s.ID, count(b.Succs, s), count(s.Preds, b))
			}
		}
		for _, p := range b.Preds {
			if !inGraph[p] {
				bad("cfg: B%d has predecessor outside the graph", b.ID)
			}
		}
		if b.IsHeader && b.Loop == nil {
			bad("cfg: header block B%d has no loop", b.ID)
		}
	}
	for l, h := range g.HeaderOf {
		if !inGraph[h] {
			bad("cfg: header of %s-loop not in the graph", l.Index.Name)
			continue
		}
		if !h.IsHeader || h.Loop != l {
			bad("cfg: header of %s-loop (B%d) not marked as its header", l.Index.Name, h.ID)
		}
	}
}

func verifySSA(u *Unit, bad func(string, ...interface{})) {
	s := u.SSA
	if s.CFG != u.CFG {
		bad("ssa: built over a stale CFG")
		return
	}
	inSSA := map[*ssa.Value]bool{}
	for _, v := range s.Values {
		inSSA[v] = true
	}
	// Statement order within a block, for same-block def-before-use.
	posInBlock := map[*ir.Stmt]int{}
	blockOf := map[*ir.Stmt]*ir.Block{}
	for _, b := range u.CFG.Blocks {
		for i, st := range b.Stmts {
			posInBlock[st] = i
			blockOf[st] = b
		}
	}
	for _, v := range s.Values {
		if v.Block == nil {
			bad("ssa: %s has no block", v)
			continue
		}
		if v.Kind == ssa.VPhi {
			if len(v.Args) != len(v.Block.Preds) {
				bad("ssa: phi %s has %d args for %d predecessors of B%d",
					v, len(v.Args), len(v.Block.Preds), v.Block.ID)
				continue
			}
			for i, a := range v.Args {
				pred := v.Block.Preds[i]
				if a == nil {
					if s.Dom.IsReachable(pred) {
						bad("ssa: phi %s has nil argument for reachable predecessor B%d", v, pred.ID)
					}
					continue
				}
				if !inSSA[a] {
					bad("ssa: phi %s argument %d dangles (value not in SSA)", v, i)
					continue
				}
				if a.Var != v.Var {
					bad("ssa: phi %s argument %d is of variable %s", v, i, a.Var.Name)
				}
			}
		}
		if v.Kind == ssa.VDef && v.Stmt == nil {
			bad("ssa: def %s has no statement", v)
		}
	}
	for use, def := range s.UseDef {
		if !inSSA[def] {
			bad("ssa: use %s bound to a value not in SSA", use)
			continue
		}
		if use.Var != def.Var {
			bad("ssa: use of %s bound to definition of %s", use.Var.Name, def.Var.Name)
		}
		ub := blockOf[use.Stmt]
		if ub == nil || !s.Dom.IsReachable(ub) {
			continue // unreachable code is exempt from dominance
		}
		if def.Block != ub {
			if !s.Dom.Dominates(def.Block, ub) {
				bad("ssa: definition %s (B%d) does not dominate use %s (B%d)",
					def, def.Block.ID, use, ub.ID)
			}
			continue
		}
		// Same block: phis and init defs precede all statements; an explicit
		// def must come from a strictly earlier statement.
		if def.Kind == ssa.VDef && posInBlock[def.Stmt] >= posInBlock[use.Stmt] {
			bad("ssa: definition %s does not precede same-block use %s", def, use)
		}
	}
}

// verifyAutoPriv holds the loops' privatization facts to the summary: what
// the pass inserted is listed where its decision says, and a lastprivate
// fact — which only inference produces — has an inserted classification
// behind it.
func verifyAutoPriv(u *Unit, bad func(string, ...interface{})) {
	for i := range u.AutoPriv.Classes {
		c := &u.AutoPriv.Classes[i]
		if !c.Inserted {
			continue
		}
		if c.Decision == dataflow.PrivSerialized || c.Var.IsLoopIndex {
			bad("autopriv: %s inserted wrt the %s-loop, but it is %s there", c.Var.Name, c.Loop.Index.Name, c.Decision)
		}
		if ok, lastOnly := c.Loop.Privatizes(c.Var); !ok || lastOnly != (c.Decision == dataflow.PrivLastPrivate) {
			bad("autopriv: %s marked inserted as %s wrt the %s-loop, but the loop's facts do not list it so",
				c.Var.Name, c.Decision, c.Loop.Index.Name)
		}
	}
	for _, l := range u.Prog.Loops {
		seen := map[*ir.Var]bool{}
		for _, v := range slices.Concat(l.Private, l.LastPrivate) {
			if seen[v] {
				bad("autopriv: %s-loop lists %s twice", l.Index.Name, v.Name)
			}
			seen[v] = true
		}
		for _, v := range l.LastPrivate {
			if v.IsArray() {
				bad("autopriv: %s-loop lastprivate names array %s (scalars only)", l.Index.Name, v.Name)
			}
			if c := u.AutoPriv.Of(v, l); c == nil || !c.Inserted || c.Decision != dataflow.PrivLastPrivate {
				bad("autopriv: %s-loop lastprivate for %s has no inserted classification backing it", l.Index.Name, v.Name)
			}
		}
	}
}

func verifyMapping(u *Unit, bad func(string, ...interface{})) {
	m := u.Mapping
	if m.Grid == nil {
		bad("mapping: no grid")
		return
	}
	rank := m.Grid.Rank()
	for v, am := range m.Arrays {
		if am.Var != v {
			bad("mapping: entry for %s maps %s", v.Name, am.Var.Name)
		}
		if len(am.Axes) != v.Rank() {
			bad("mapping: %s has %d axes for rank %d", v.Name, len(am.Axes), v.Rank())
			continue
		}
		if len(am.Repl) != rank {
			bad("mapping: %s has %d replication flags for grid rank %d", v.Name, len(am.Repl), rank)
			continue
		}
		targeted := make([]bool, rank)
		for dim, ax := range am.Axes {
			if !ax.Distributed {
				continue
			}
			if ax.GridDim < 0 || ax.GridDim >= rank {
				bad("mapping: %s dim %d distributed onto grid dim %d, grid rank is %d",
					v.Name, dim, ax.GridDim, rank)
				continue
			}
			if targeted[ax.GridDim] {
				bad("mapping: %s maps two dimensions onto grid dim %d", v.Name, ax.GridDim)
			}
			targeted[ax.GridDim] = true
			if ax.Block <= 0 {
				bad("mapping: %s dim %d has non-positive block size %d", v.Name, dim, ax.Block)
			}
		}
		for d := 0; d < rank; d++ {
			if targeted[d] && am.Repl[d] {
				bad("mapping: %s both distributed over and replicated across grid dim %d", v.Name, d)
			}
			if !targeted[d] && !am.Repl[d] {
				bad("mapping: %s neither distributed over nor replicated across grid dim %d", v.Name, d)
			}
		}
	}
}
