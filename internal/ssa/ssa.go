package ssa

import (
	"fmt"
	"slices"
	"strings"

	"phpf/internal/ir"
)

// ValueKind discriminates SSA values.
type ValueKind int

const (
	// VInit is the implicit entry definition a variable has before any
	// explicit assignment (reading it yields an undefined value).
	VInit ValueKind = iota
	// VDef is an explicit assignment statement.
	VDef
	// VPhi merges values at a control flow join.
	VPhi
)

// Value is one SSA definition of a scalar variable.
type Value struct {
	ID      int
	Kind    ValueKind
	Var     *ir.Var
	Version int

	Stmt  *ir.Stmt  // VDef: the defining assignment
	Block *ir.Block // block holding the definition (phi: the join block)

	// Phi arguments, one per predecessor of Block (VPhi only). An argument
	// may be nil if the corresponding predecessor is unreachable.
	Args []*Value

	// UseRefs are the direct textual uses bound to this value.
	UseRefs []*ir.Ref
	// UsePhis are the phi values that take this value as an argument.
	UsePhis []*Value

	// HeaderLoop is the loop whose header block carries this phi (nil for
	// non-loop-header phis and non-phis).
	HeaderLoop *ir.Loop
}

func (v *Value) String() string {
	switch v.Kind {
	case VInit:
		return fmt.Sprintf("%s.init", v.Var.Name)
	case VPhi:
		return fmt.Sprintf("%s.%d=phi@B%d", v.Var.Name, v.Version, v.Block.ID)
	default:
		return fmt.Sprintf("%s.%d@s%d", v.Var.Name, v.Version, v.Stmt.ID)
	}
}

// SSA is the result of construction.
type SSA struct {
	Prog   *ir.Program
	CFG    *ir.CFG
	Dom    *DomInfo
	Values []*Value

	// DefOf maps an assignment statement (with scalar lhs) to its value.
	DefOf map[*ir.Stmt]*Value
	// UseDef maps every scalar use reference to the value it reads.
	UseDef map[*ir.Ref]*Value

	// reached and defs keep ReachedUses' answer per definition and
	// ReachingDefs' per value a use reads, by Value.ID (nil: not asked yet):
	// the analyses ask of the same few values many times over, and an SSA is
	// rebuilt, not edited, when the program changes.
	reached [][]ReachedUse
	defs    [][]*Value
	// pos is ReachedUses' working index, by Value.ID: 1 + the value's place
	// among those the walk reached, 0 when it reached none (the walk's end
	// clears it).
	pos []int32
}

// renamed reports whether v's uses are renamed: a scalar, not a loop index.
func renamed(v *ir.Var) bool { return !v.IsArray() && !v.IsLoopIndex }

// scalarDef reports whether st assigns a scalar (a loop index too).
func scalarDef(st *ir.Stmt) bool { return st.Kind == ir.SAssign && !st.Lhs.Var.IsArray() }

// builder is one construction's working state: arrays by variable
// (Var.Slot), Block.ID or Value.ID, cut from slabs whose sizes are counted
// before anything is allocated.
type builder struct {
	s    *SSA
	vals []Value // by Value.ID

	inWork, hasPhi  []int32 // by Block.ID: 1 + the last variable to mark it
	work            []int32 // the phi placement's worklist of Block.IDs
	defOff, defBlk  []int32 // variable v's definitions are in the blocks defBlk[defOff[v]:defOff[v+1]]
	phiOff          []int32 // block b's phis are phis[phiOff[b]:phiOff[b+1]]
	phis            []*Value
	version, top    []int32 // by variable: its last version, the Value.ID atop its stack (-1: none)
	below           []int32 // by Value.ID: the value under it on its variable's stack
	nRefs, nPhiUses []int32 // by Value.ID: the lengths of UseRefs and UsePhis
	next            int     // the next Value.ID
}

// phisAt returns the phis of block id, in variable name order.
func (b *builder) phisAt(id int) []*Value { return b.phis[b.phiOff[id]:b.phiOff[id+1]] }

// take cuts the next n entries off *slab.
func take[T any](slab *[]T, n int) (t []T) {
	t, *slab = (*slab)[:n:n], (*slab)[n:]
	return t
}

// Build constructs SSA form for all scalar (non-loop-index) variables: it
// places the phis by iterated dominance frontiers and renames by a
// dominator-tree walk with a version stack per variable (Cytron et al.).
func Build(p *ir.Program, g *ir.CFG) *SSA {
	s, nb, nv := &SSA{Prog: p, CFG: g, Dom: ComputeDom(g)}, len(g.Blocks), len(p.VarList)
	b, nInit, nDefs, nUses := &builder{s: s}, 0, 0, 0
	ints := make([]int32, 2*nb+(nb+1)+2*nv+(nv+1))
	b.inWork, b.hasPhi, b.phiOff = take(&ints, nb), take(&ints, nb), take(&ints, nb+1)
	b.version, b.top, b.defOff = take(&ints, nv), take(&ints, nv), ints
	for _, blk := range s.Dom.Reachable {
		for _, st := range blk.Stmts {
			if scalarDef(st) {
				nDefs++
				b.defOff[st.Lhs.Var.Slot]++
			}
			for _, u := range st.Uses {
				if renamed(u.Var) {
					nUses++
				}
			}
		}
	}
	// Every variable's definition blocks, in program order, filed from the
	// back of its part of defBlk.
	for v, x := range p.VarList {
		b.defOff[v+1] += b.defOff[v]
		if renamed(x) {
			nInit++
		}
	}
	ints = make([]int32, nDefs+(nDefs+1+nb))
	b.defBlk, b.work = take(&ints, nDefs), ints
	for i := len(s.Dom.Reachable) - 1; i >= 0; i-- {
		blk := s.Dom.Reachable[i]
		for j := len(blk.Stmts) - 1; j >= 0; j-- {
			if st := blk.Stmts[j]; scalarDef(st) {
				b.defOff[st.Lhs.Var.Slot]--
				b.defBlk[b.defOff[st.Lhs.Var.Slot]] = int32(blk.ID)
			}
		}
	}

	// Phi placement, run twice: the first counts every block's phis and
	// their arguments, the second makes them, numbered in placement order,
	// and files them from the back of each block's part of phis.
	nPhi, nArgs := 0, 0
	b.placePhis(func(_ *ir.Var, f *ir.Block) {
		b.phiOff[f.ID]++
		nPhi++
		nArgs += len(f.Preds)
	})
	for i := 1; i <= nb; i++ {
		b.phiOff[i] += b.phiOff[i-1]
	}
	nVals := nPhi + nInit + nDefs
	ints = make([]int32, 3*nVals)
	b.below, b.nRefs, b.nPhiUses = take(&ints, nVals), take(&ints, nVals), ints
	b.vals = make([]Value, nVals)
	ptrs := make([]*Value, nVals+nPhi+2*nArgs) // at most one phi use per argument
	s.Values, b.phis = take(&ptrs, nVals), take(&ptrs, nPhi)
	args, uses, refs := take(&ptrs, nArgs), ptrs, make([]*ir.Ref, nUses)
	s.DefOf, s.UseDef = make(map[*ir.Stmt]*Value, nDefs), make(map[*ir.Ref]*Value, nUses)
	b.placePhis(func(x *ir.Var, f *ir.Block) {
		phi := b.newValue(VPhi, x, f)
		phi.Args = take(&args, len(f.Preds))
		if f.IsHeader {
			phi.HeaderLoop = f.Loop
		}
		b.phiOff[f.ID]--
		b.phis[b.phiOff[f.ID]] = phi
	})
	for blk := range nb {
		slices.SortFunc(b.phisAt(blk), func(x, y *Value) int { return strings.Compare(x.Var.Name, y.Var.Name) })
	}

	// Renaming, from each variable's implicit entry definition.
	for _, x := range p.VarList {
		b.top[x.Slot] = -1
		if renamed(x) {
			b.below[b.newValue(VInit, x, g.Entry).ID] = -1
			b.top[x.Slot] = int32(b.next - 1)
		}
	}
	b.rename(g.Entry)

	// Every value's uses, in program order, and phi uses, in phi order, each
	// list cut from one array at the length rename counted.
	for i, val := range s.Values {
		val.UseRefs, val.UsePhis = take(&refs, int(b.nRefs[i]))[:0], take(&uses, int(b.nPhiUses[i]))[:0]
	}
	for _, r := range p.Refs {
		if def := s.UseDef[r]; def != nil {
			def.UseRefs = append(def.UseRefs, r)
		}
	}
	for _, phi := range s.Values[:nPhi] {
		for _, arg := range phi.Args {
			if arg != nil {
				arg.UsePhis = append(arg.UsePhis, phi)
			}
		}
	}
	return s
}

// newValue makes the next value.
func (b *builder) newValue(kind ValueKind, x *ir.Var, blk *ir.Block) *Value {
	val := &b.vals[b.next]
	*val = Value{ID: b.next, Kind: kind, Var: x, Block: blk}
	b.s.Values[b.next] = val
	b.next++
	return val
}

// rename visits blk and, below it, the dominator tree: phis and definitions
// push, uses read the tops of the stacks, so do the successors' phi
// arguments, and the block's pushes are popped on the way back.
func (b *builder) rename(blk *ir.Block) {
	for _, phi := range b.phisAt(blk.ID) {
		b.push(phi)
	}
	for _, st := range blk.Stmts {
		for _, u := range st.Uses {
			if renamed(u.Var) {
				def := b.s.Values[b.top[u.Var.Slot]]
				b.s.UseDef[u] = def
				b.nRefs[def.ID]++
			}
		}
		if scalarDef(st) {
			val := b.newValue(VDef, st.Lhs.Var, blk)
			val.Stmt, b.s.DefOf[st] = st, val
			b.push(val)
		}
	}
	for _, succ := range blk.Succs {
		pos := slices.Index(succ.Preds, blk)
		for _, phi := range b.phisAt(succ.ID) {
			arg := b.s.Values[b.top[phi.Var.Slot]]
			phi.Args[pos] = arg
			b.nPhiUses[arg.ID]++
		}
	}
	for _, c := range b.s.Dom.Children[blk.ID] {
		b.rename(c)
	}
	for _, phi := range b.phisAt(blk.ID) {
		b.pop(phi.Var)
	}
	for _, st := range blk.Stmts {
		if scalarDef(st) {
			b.pop(st.Lhs.Var)
		}
	}
}

// push puts val atop its variable's stack, with the variable's next version.
func (b *builder) push(val *Value) {
	v := val.Var.Slot
	b.version[v]++
	val.Version = int(b.version[v])
	b.below[val.ID], b.top[v] = b.top[v], int32(val.ID)
}

// pop takes the top value off x's stack.
func (b *builder) pop(x *ir.Var) {
	b.top[x.Slot] = b.below[b.top[x.Slot]]
}

// placePhis runs the iterated dominance frontier of every renamed variable,
// in declaration order, and calls at(x, f) for each block f that gets a phi
// for variable x, in the order the phis are numbered.
func (b *builder) placePhis(at func(x *ir.Var, f *ir.Block)) {
	clear(b.inWork)
	clear(b.hasPhi)
	for v, x := range b.s.Prog.VarList {
		if !renamed(x) {
			continue
		}
		mark, work := int32(v+1), b.work[:0]
		for _, id := range b.defBlk[b.defOff[v]:b.defOff[v+1]] {
			work = append(work, id)
			b.inWork[id] = mark
		}
		entry := int32(b.s.CFG.Entry.ID)
		work, b.inWork[entry] = append(work, entry), mark
		for len(work) > 0 {
			id := work[len(work)-1]
			work = work[:len(work)-1]
			for _, f := range b.s.Dom.Frontier[id] {
				if b.hasPhi[f.ID] == mark {
					continue
				}
				b.hasPhi[f.ID] = mark
				at(x, f)
				if b.inWork[f.ID] != mark {
					b.inWork[f.ID] = mark
					work = append(work, int32(f.ID))
				}
			}
		}
	}
}

// ReachingDefs returns the non-phi values (explicit defs and init values)
// that may reach the given use, flattening phi functions transitively.
// The result is deterministic (ordered by value ID) and shared between
// calls: callers only read it.
func (s *SSA) ReachingDefs(use *ir.Ref) []*Value {
	root := s.UseDef[use]
	if root == nil {
		return nil
	}
	if s.defs == nil {
		s.defs = make([][]*Value, len(s.Values))
	}
	if out := s.defs[root.ID]; out != nil {
		return out
	}
	var buf [48]*Value
	out, work, phis := buf[:0:16], append(buf[16:16:32], root), buf[32:32] // phis: those walked
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		switch {
		case v == nil || slices.Contains(phis, v) || slices.Contains(out, v):
		case v.Kind == VPhi:
			phis = append(phis, v)
			work = append(work, v.Args...)
		default:
			out = append(out, v)
		}
	}
	slices.SortFunc(out, func(a, b *Value) int { return a.ID - b.ID })
	s.defs[root.ID] = append([]*Value(nil), out...)
	return s.defs[root.ID]
}

// LoopSet is a set of loops, a bit per Loop.ID.
type LoopSet []uint64

// Has reports whether l is in the set.
func (ls LoopSet) Has(l *ir.Loop) bool {
	return l.ID/64 < len(ls) && ls[l.ID/64]&(1<<(l.ID%64)) != 0
}

// ReachedUse describes one use reached by a definition, with the loops whose
// back edge some def→use path crosses (the value is carried into a later
// iteration of those loops).
type ReachedUse struct {
	Ref *ir.Ref
	// CrossesBackOf holds loops whose back edge was crossed on some path
	// from the definition to this use.
	CrossesBackOf LoopSet
}

// ReachedUses returns every textual use the definition's value may reach,
// flattening phis, with back-edge crossing information. Deterministic order
// (by ref ID). The result is shared between calls: callers only read it.
func (s *SSA) ReachedUses(def *Value) []ReachedUse {
	if s.reached == nil {
		s.reached = make([][]ReachedUse, len(s.Values))
		s.pos = make([]int32, len(s.Values))
	}
	if out := s.reached[def.ID]; out != nil {
		return out
	}
	// The values def flows into through phis, each with the loops whose back
	// edge some path to it crosses (reached[i]'s set is crossed[i*w:][:w]):
	// the least sets closed under the phi edges, a value walked again
	// whenever its set grows. A use's set is that of the value it reads.
	w := (len(s.Prog.Loops) + 63) / 64
	reached, crossed := []*Value{def}, make([]uint64, w)
	s.pos[def.ID] = 1
	var buf [16]*Value
	for work := append(buf[:0], def); len(work) > 0; {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		from := int(s.pos[v.ID]-1) * w
		for _, phi := range v.UsePhis {
			grew := s.pos[phi.ID] == 0
			if grew {
				reached = append(reached, phi)
				crossed = append(crossed, make([]uint64, w)...)
				s.pos[phi.ID] = int32(len(reached))
			}
			to := int(s.pos[phi.ID]-1) * w
			for k := range w {
				grew = grew || crossed[from+k]&^crossed[to+k] != 0
				crossed[to+k] |= crossed[from+k]
			}
			if l := phi.HeaderLoop; l != nil && s.isBackEdgeArg(phi, v) {
				k, bit := to+l.ID/64, uint64(1)<<(l.ID%64)
				grew = grew || crossed[k]&bit == 0
				crossed[k] |= bit
			}
			if grew {
				work = append(work, phi)
			}
		}
	}
	n := 0
	for _, v := range reached {
		n += len(v.UseRefs)
	}
	out := make([]ReachedUse, 0, n)
	for i, v := range reached {
		s.pos[v.ID] = 0
		for _, u := range v.UseRefs {
			out = append(out, ReachedUse{Ref: u, CrossesBackOf: crossed[i*w : (i+1)*w : (i+1)*w]})
		}
	}
	slices.SortFunc(out, func(a, b ReachedUse) int { return a.Ref.ID - b.Ref.ID })
	s.reached[def.ID] = out
	return out
}

// isBackEdgeArg reports whether val flows into phi through a back edge of
// the phi's header loop (i.e. from a predecessor inside the loop).
func (s *SSA) isBackEdgeArg(phi, val *Value) bool {
	for i, a := range phi.Args {
		if a != val {
			continue
		}
		pred := phi.Block.Preds[i]
		if ir.Encloses(phi.HeaderLoop, pred.Loop) && pred.Loop != nil {
			return true
		}
	}
	return false
}

// IsUniqueDef reports whether def is the only reaching definition of every
// use it reaches (the paper's IsUniqueDef predicate in Figure 3).
func (s *SSA) IsUniqueDef(def *Value) bool {
	for _, ru := range s.ReachedUses(def) {
		defs := s.ReachingDefs(ru.Ref)
		if len(defs) != 1 || defs[0] != def {
			return false
		}
	}
	return true
}
