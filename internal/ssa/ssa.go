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

	// reached keeps ReachedUses' answer per definition (by Value.ID; nil: not
	// asked yet). The analyses ask it of the same few definitions many times
	// over, and an SSA is rebuilt, not edited, when the program changes.
	reached [][]ReachedUse
	// pos is ReachedUses' working index, by Value.ID: 1 + the value's place
	// among those the walk reached, 0 when it reached none (the walk's end
	// clears it).
	pos []int32
}

// Build constructs SSA form for all scalar (non-loop-index) variables.
func Build(p *ir.Program, g *ir.CFG) *SSA {
	s := &SSA{
		Prog:   p,
		CFG:    g,
		Dom:    ComputeDom(g),
		DefOf:  map[*ir.Stmt]*Value{},
		UseDef: map[*ir.Ref]*Value{},
	}
	s.build()
	return s
}

func (s *SSA) newValue(kind ValueKind, v *ir.Var, blk *ir.Block) *Value {
	val := &Value{ID: len(s.Values), Kind: kind, Var: v, Block: blk}
	s.Values = append(s.Values, val)
	return val
}

// ssaVars returns the scalar variables subject to renaming, in declaration
// order.
func (s *SSA) ssaVars() []*ir.Var {
	var out []*ir.Var
	for _, v := range s.Prog.VarList {
		if !v.IsArray() && !v.IsLoopIndex {
			out = append(out, v)
		}
	}
	return out
}

func (s *SSA) build() {
	vars := s.ssaVars()

	// Definition sites per variable.
	defBlocks := map[*ir.Var][]*ir.Block{}
	for _, b := range s.Dom.Reachable {
		for _, st := range b.Stmts {
			if st.Kind == ir.SAssign && !st.Lhs.Var.IsArray() {
				defBlocks[st.Lhs.Var] = append(defBlocks[st.Lhs.Var], b)
			}
		}
	}

	// Phi placement via iterated dominance frontiers. Every variable also
	// has an implicit init def at entry.
	phis := map[*ir.Block]map[*ir.Var]*Value{} // join block -> var -> phi
	for _, v := range vars {
		work := append([]*ir.Block{}, defBlocks[v]...)
		work = append(work, s.CFG.Entry)
		inWork := map[*ir.Block]bool{}
		for _, b := range work {
			inWork[b] = true
		}
		hasPhi := map[*ir.Block]bool{}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, f := range s.Dom.Frontier[b.ID] {
				if hasPhi[f] {
					continue
				}
				hasPhi[f] = true
				phi := s.newValue(VPhi, v, f)
				phi.Args = make([]*Value, len(f.Preds))
				if f.IsHeader {
					phi.HeaderLoop = f.Loop
				}
				if phis[f] == nil {
					phis[f] = map[*ir.Var]*Value{}
				}
				phis[f][v] = phi
				if !inWork[f] {
					inWork[f] = true
					work = append(work, f)
				}
			}
		}
	}

	// Renaming: dominator-tree walk with version stacks.
	stack := map[*ir.Var][]*Value{}
	version := map[*ir.Var]int{}
	for _, v := range vars {
		init := s.newValue(VInit, v, s.CFG.Entry)
		stack[v] = []*Value{init}
	}
	top := func(v *ir.Var) *Value { return stack[v][len(stack[v])-1] }
	push := func(val *Value) {
		version[val.Var]++
		val.Version = version[val.Var]
		stack[val.Var] = append(stack[val.Var], val)
	}

	var rename func(b *ir.Block)
	rename = func(b *ir.Block) {
		pushed := map[*ir.Var]int{}
		// Phi definitions first.
		if pm := phis[b]; pm != nil {
			// Deterministic order.
			var pvars []*ir.Var
			for v := range pm {
				pvars = append(pvars, v)
			}
			slices.SortFunc(pvars, func(a, b *ir.Var) int { return strings.Compare(a.Name, b.Name) })
			for _, v := range pvars {
				push(pm[v])
				pushed[v]++
			}
		}
		for _, st := range b.Stmts {
			// Uses read the current version.
			for _, u := range st.Uses {
				if u.Var.IsArray() || u.Var.IsLoopIndex {
					continue
				}
				def := top(u.Var)
				s.UseDef[u] = def
				def.UseRefs = append(def.UseRefs, u)
			}
			// Then the definition, if scalar.
			if st.Kind == ir.SAssign && !st.Lhs.Var.IsArray() {
				val := s.newValue(VDef, st.Lhs.Var, b)
				val.Stmt = st
				s.DefOf[st] = val
				push(val)
				pushed[st.Lhs.Var]++
			}
		}
		// Fill phi arguments in successors.
		for _, succ := range b.Succs {
			pm := phis[succ]
			if pm == nil {
				continue
			}
			pos := -1
			for i, p := range succ.Preds {
				if p == b {
					pos = i
					break
				}
			}
			for v, phi := range pm {
				arg := top(v)
				phi.Args[pos] = arg
				arg.UsePhis = append(arg.UsePhis, phi)
			}
		}
		for _, c := range s.Dom.Children[b.ID] {
			rename(c)
		}
		for v, n := range pushed {
			stack[v] = stack[v][:len(stack[v])-n]
		}
	}
	rename(s.CFG.Entry)
}

// ReachingDefs returns the non-phi values (explicit defs and init values)
// that may reach the given use, flattening phi functions transitively.
// The result is deterministic (ordered by value ID).
func (s *SSA) ReachingDefs(use *ir.Ref) []*Value {
	root := s.UseDef[use]
	if root == nil {
		return nil
	}
	var out []*Value
	var buf [32]*Value
	work, phis := append(buf[:0:16], root), buf[16:16] // phis: those walked
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
	return out
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
