// Package ssa constructs static single assignment form for the scalar
// variables of a lowered program (Cytron et al. [5] in the paper), and
// exposes the def-use relations the privatization analysis is built on:
// reaching definitions of a use and reached uses of a definition, traced
// through phi functions.
package ssa

import (
	"slices"

	"phpf/internal/ir"
)

// DomInfo holds dominator-tree information for a CFG, computed with the
// Cooper-Harvey-Kennedy iterative algorithm over a reverse postorder.
type DomInfo struct {
	// Reachable lists blocks reachable from entry in reverse postorder.
	Reachable []*ir.Block
	// RPO[b.ID] is the reverse-postorder number (only for reachable blocks).
	RPO []int
	// Idom[b.ID] is the immediate dominator (nil for entry / unreachable).
	Idom []*ir.Block
	// Children[b.ID] lists the dominator-tree children of b.
	Children [][]*ir.Block
	// Frontier[b.ID] is the dominance frontier of b.
	Frontier [][]*ir.Block

	isReachable []bool
}

// ComputeDom computes dominators and dominance frontiers for g.
func ComputeDom(g *ir.CFG) *DomInfo {
	n := len(g.Blocks)
	d := &DomInfo{
		RPO:         make([]int, n),
		Idom:        make([]*ir.Block, n),
		isReachable: make([]bool, n),
	}
	// Postorder DFS from entry, reversed in place.
	post := make([]*ir.Block, 0, n)
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		d.isReachable[b.ID] = true
		for _, s := range b.Succs {
			if !d.isReachable[s.ID] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(g.Entry)
	slices.Reverse(post)
	d.Reachable = post
	for i, b := range d.Reachable {
		d.RPO[b.ID] = i
	}

	// Iterative dominator computation.
	intersect := func(b1, b2 *ir.Block) *ir.Block {
		for b1 != b2 {
			for d.RPO[b1.ID] > d.RPO[b2.ID] {
				b1 = d.Idom[b1.ID]
			}
			for d.RPO[b2.ID] > d.RPO[b1.ID] {
				b2 = d.Idom[b2.ID]
			}
		}
		return b1
	}
	d.Idom[g.Entry.ID] = g.Entry
	for changed := true; changed; {
		changed = false
		for _, b := range d.Reachable {
			if b == g.Entry {
				continue
			}
			var newIdom *ir.Block
			for _, p := range b.Preds {
				if !d.isReachable[p.ID] || d.Idom[p.ID] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != nil && d.Idom[b.ID] != newIdom {
				d.Idom[b.ID] = newIdom
				changed = true
			}
		}
	}
	d.Idom[g.Entry.ID] = nil // entry has no idom

	// The dominator tree's edges (idom, b) and the frontier's (runner, b)
	// (Cytron et al.), each pair once, b in reverse postorder: every block's
	// children and frontier are laid out, in that order, in one array.
	pairs := make([][2]*ir.Block, 0, len(d.Reachable))
	for _, b := range d.Reachable {
		if id := d.Idom[b.ID]; id != nil {
			pairs = append(pairs, [2]*ir.Block{id, b})
		}
	}
	d.Children = layOut(pairs, n)
	pairs = pairs[:0]
	for _, b := range d.Reachable {
		if len(b.Preds) < 2 {
			continue
		}
		own := len(pairs) // b's pairs start here
		for _, p := range b.Preds {
			if !d.isReachable[p.ID] {
				continue
			}
			// Above a runner b already has, the walk is done.
			for runner := p; runner != nil && runner != d.Idom[b.ID] &&
				!slices.Contains(pairs[own:], [2]*ir.Block{runner, b}); runner = d.Idom[runner.ID] {
				pairs = append(pairs, [2]*ir.Block{runner, b})
			}
		}
	}
	d.Frontier = layOut(pairs, n)
	return d
}

// layOut returns, by block ID, the second blocks of the pairs whose first is
// that block, in the pairs' order, in one array.
func layOut(pairs [][2]*ir.Block, n int) [][]*ir.Block {
	slices.SortStableFunc(pairs, func(a, b [2]*ir.Block) int { return a[0].ID - b[0].ID })
	out, all := make([][]*ir.Block, n), make([]*ir.Block, len(pairs))
	for i, p := range pairs {
		all[i] = p[1]
		id := p[0].ID
		out[id] = all[i-len(out[id]) : i+1 : i+1]
	}
	return out
}

// Dominates reports whether a dominates b (reflexively).
func (d *DomInfo) Dominates(a, b *ir.Block) bool {
	for x := b; x != nil; x = d.Idom[x.ID] {
		if x == a {
			return true
		}
	}
	return false
}

// IsReachable reports whether b is reachable from entry.
func (d *DomInfo) IsReachable(b *ir.Block) bool { return d.isReachable[b.ID] }
