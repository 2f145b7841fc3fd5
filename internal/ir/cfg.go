package ir

import (
	"fmt"
	"strings"
)

// Block is a basic block in the control flow graph. Blocks hold pointers to
// the same Stmt objects as the structured tree, so analyses can attach
// results to statements and see them from both views.
type Block struct {
	ID    int
	Stmts []*Stmt
	Succs []*Block
	Preds []*Block

	// Loop is the innermost loop this block belongs to (nil outside loops).
	Loop *Loop
	// IsHeader marks the loop-header block of Loop (the block where the
	// index variable takes its per-iteration value and phi functions for
	// loop-carried scalars are placed).
	IsHeader bool
}

// CFG is the control flow graph of a program.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block

	// HeaderOf maps each loop to its header block; PreheaderOf to the block
	// that runs immediately before the loop is entered; ExitOf to the block
	// control reaches after the loop completes.
	HeaderOf    map[*Loop]*Block
	PreheaderOf map[*Loop]*Block
	ExitOf      map[*Loop]*Block
}

type cfgBuilder struct {
	g *CFG
	// labelBlock maps a statement label to the block beginning at it.
	labelBlock map[int]*Block
	// pendingGotos are (source block, label) edges added after all labels
	// are placed.
	pendingGotos []pendingGoto
	// edges are the edges in the order they were added, which BuildCFG
	// lays out in every block's Succs and Preds at its end.
	edges [][2]int32 // (from, to) block IDs
}

type pendingGoto struct {
	from  *Block
	label int
}

// BuildCFG constructs the control flow graph for a lowered program.
//
// Loops produce the shape preheader → header → body… → latch(=last body
// block, edge back to header) with header → exit for termination. GOTOs may
// only target labels inside the same loop body (forward or backward), which
// covers the Fortran idioms in the benchmarks (early exit to a trailing
// CONTINUE).
func BuildCFG(p *Program) (*CFG, error) {
	// A loop adds four edges, and no statement more than two but an IF's
	// four.
	nEdges := 1 + 4*len(p.Loops)
	for _, st := range p.Stmts {
		switch st.Kind {
		case SIf:
			nEdges += 4
		case SGoto, SIfGoto, SContinue:
			nEdges += 2
		}
	}
	b := &cfgBuilder{
		g: &CFG{
			HeaderOf:    make(map[*Loop]*Block, len(p.Loops)),
			PreheaderOf: make(map[*Loop]*Block, len(p.Loops)),
			ExitOf:      make(map[*Loop]*Block, len(p.Loops)),
		},
		labelBlock: map[int]*Block{},
		edges:      make([][2]int32, 0, nEdges),
	}
	entry := b.newBlock(nil)
	b.g.Entry = entry
	last, err := b.buildSeq(p.Body, entry, nil)
	if err != nil {
		return nil, err
	}
	exit := b.newBlock(nil)
	b.addEdge(last, exit)
	b.g.Exit = exit
	for _, pg := range b.pendingGotos {
		target, ok := b.labelBlock[pg.label]
		if !ok {
			return nil, fmt.Errorf("goto target %d not materialized in CFG", pg.label)
		}
		b.addEdge(pg.from, target)
	}
	b.layOutEdges()
	return b.g, nil
}

// layOutEdges sets every block's Succs and Preds, each in the order its edges
// were added, in one array.
func (b *cfgBuilder) layOutEdges() {
	blocks := b.g.Blocks
	n := make([]int32, 2*len(blocks)) // successors, predecessors
	for _, e := range b.edges {
		n[2*e[0]]++
		n[2*e[1]+1]++
	}
	all := make([]*Block, 2*len(b.edges))
	for i, blk := range blocks {
		blk.Succs, all = all[:0:n[2*i]], all[n[2*i]:]
		blk.Preds, all = all[:0:n[2*i+1]], all[n[2*i+1]:]
	}
	for _, e := range b.edges {
		from, to := blocks[e[0]], blocks[e[1]]
		from.Succs = append(from.Succs, to)
		to.Preds = append(to.Preds, from)
	}
}

func (b *cfgBuilder) newBlock(loop *Loop) *Block {
	blk := &Block{ID: len(b.g.Blocks), Loop: loop}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) addEdge(from, to *Block) {
	if from == nil {
		return
	}
	b.edges = append(b.edges, [2]int32{int32(from.ID), int32(to.ID)})
}

// buildSeq appends the CFG for nodes starting in cur, returning the block
// where control continues. A nil return means control cannot fall through
// (ends in an unconditional goto).
func (b *cfgBuilder) buildSeq(nodes []Node, cur *Block, loop *Loop) (*Block, error) {
	for _, n := range nodes {
		var err error
		cur, err = b.buildNode(n, cur, loop)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

func (b *cfgBuilder) buildNode(n Node, cur *Block, loop *Loop) (*Block, error) {
	switch x := n.(type) {
	case *Stmt:
		switch x.Kind {
		case SGoto:
			if cur != nil {
				cur.Stmts = append(cur.Stmts, x)
				b.pendingGotos = append(b.pendingGotos, pendingGoto{cur, x.Label})
			}
			return nil, nil // no fallthrough
		case SIfGoto:
			if cur == nil {
				cur = b.newBlock(loop)
			}
			cur.Stmts = append(cur.Stmts, x)
			b.pendingGotos = append(b.pendingGotos, pendingGoto{cur, x.Label})
			next := b.newBlock(loop)
			b.addEdge(cur, next)
			return next, nil
		case SContinue:
			// A label always starts a fresh block so GOTOs can target it.
			blk := b.newBlock(loop)
			b.addEdge(cur, blk)
			blk.Stmts = append(blk.Stmts, x)
			b.labelBlock[x.Label] = blk
			return blk, nil
		default:
			if cur == nil {
				// Unreachable statement after goto: give it its own block so
				// analyses still see it (it simply has no predecessors).
				cur = b.newBlock(loop)
			}
			cur.Stmts = append(cur.Stmts, x)
			return cur, nil
		}

	case *If:
		if cur == nil {
			cur = b.newBlock(loop)
		}
		cur.Stmts = append(cur.Stmts, x.Cond)
		thenBlk := b.newBlock(loop)
		b.addEdge(cur, thenBlk)
		thenEnd, err := b.buildSeq(x.Then, thenBlk, loop)
		if err != nil {
			return nil, err
		}
		var elseEnd *Block
		if len(x.Else) > 0 {
			elseBlk := b.newBlock(loop)
			b.addEdge(cur, elseBlk)
			elseEnd, err = b.buildSeq(x.Else, elseBlk, loop)
			if err != nil {
				return nil, err
			}
		}
		join := b.newBlock(loop)
		if thenEnd != nil {
			b.addEdge(thenEnd, join)
		}
		if len(x.Else) > 0 {
			if elseEnd != nil {
				b.addEdge(elseEnd, join)
			}
		} else {
			b.addEdge(cur, join)
		}
		return join, nil

	case *Loop:
		if cur == nil {
			cur = b.newBlock(loop)
		}
		// cur acts as (part of) the preheader; it evaluates the bounds.
		if x.BoundsStmt != nil {
			cur.Stmts = append(cur.Stmts, x.BoundsStmt)
		}
		header := b.newBlock(x)
		header.IsHeader = true
		b.g.PreheaderOf[x] = cur
		b.g.HeaderOf[x] = header
		b.addEdge(cur, header)

		bodyBlk := b.newBlock(x)
		b.addEdge(header, bodyBlk)
		bodyEnd, err := b.buildSeq(x.Body, bodyBlk, x)
		if err != nil {
			return nil, err
		}
		if bodyEnd != nil {
			b.addEdge(bodyEnd, header) // back edge
		}
		exit := b.newBlock(loop)
		b.addEdge(header, exit)
		b.g.ExitOf[x] = exit
		return exit, nil
	}
	return cur, nil
}

// String renders the CFG for debugging and golden tests.
func (g *CFG) String() string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		fmt.Fprintf(&sb, "B%d", blk.ID)
		if blk == g.Entry {
			sb.WriteString(" (entry)")
		}
		if blk == g.Exit {
			sb.WriteString(" (exit)")
		}
		if blk.IsHeader {
			fmt.Fprintf(&sb, " (header of %s-loop)", blk.Loop.Index.Name)
		}
		sb.WriteString(":")
		for _, s := range blk.Stmts {
			fmt.Fprintf(&sb, " s%d", s.ID)
		}
		sb.WriteString(" ->")
		for _, t := range blk.Succs {
			fmt.Fprintf(&sb, " B%d", t.ID)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
