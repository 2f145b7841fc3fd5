package ssa

import (
	"fmt"
	"sort"

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
			sort.Slice(pvars, func(i, j int) bool { return pvars[i].Name < pvars[j].Name })
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
	seen := map[*Value]bool{}
	var out []*Value
	var walk func(v *Value)
	walk = func(v *Value) {
		if v == nil || seen[v] {
			return
		}
		seen[v] = true
		if v.Kind == VPhi {
			for _, a := range v.Args {
				walk(a)
			}
			return
		}
		out = append(out, v)
	}
	walk(root)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ReachedUse describes one use reached by a definition, with the loops whose
// back edge some def→use path crosses (the value is carried into a later
// iteration of those loops).
type ReachedUse struct {
	Ref *ir.Ref
	// CrossesBackOf holds loops whose back edge was crossed on some path
	// from the definition to this use.
	CrossesBackOf map[*ir.Loop]bool
}

// ReachedUses returns every textual use the definition's value may reach,
// flattening phis, with back-edge crossing information. Deterministic order
// (by ref ID). The result is shared between calls: callers only read it.
func (s *SSA) ReachedUses(def *Value) []ReachedUse {
	if s.reached == nil {
		s.reached = make([][]ReachedUse, len(s.Values))
	}
	if out := s.reached[def.ID]; out != nil {
		return out
	}
	type state struct {
		val     *Value
		crossed map[*ir.Loop]bool
	}
	// For termination, track the best-known crossing sets per value; revisit
	// a value only when the crossing set grows.
	seen := map[*Value]map[*ir.Loop]bool{}
	uses := map[*ir.Ref]map[*ir.Loop]bool{}

	subset := func(a, b map[*ir.Loop]bool) bool {
		for l := range a {
			if !b[l] {
				return false
			}
		}
		return true
	}
	merge := func(dst, src map[*ir.Loop]bool) map[*ir.Loop]bool {
		out := map[*ir.Loop]bool{}
		for l := range dst {
			out[l] = true
		}
		for l := range src {
			out[l] = true
		}
		return out
	}

	work := []state{{val: def, crossed: map[*ir.Loop]bool{}}}
	for len(work) > 0 {
		st := work[len(work)-1]
		work = work[:len(work)-1]
		if prev, ok := seen[st.val]; ok && subset(st.crossed, prev) {
			continue
		}
		if prev, ok := seen[st.val]; ok {
			seen[st.val] = merge(prev, st.crossed)
		} else {
			seen[st.val] = merge(nil, st.crossed)
		}
		for _, u := range st.val.UseRefs {
			if prev, ok := uses[u]; ok {
				uses[u] = merge(prev, st.crossed)
			} else {
				uses[u] = merge(nil, st.crossed)
			}
		}
		for _, phi := range st.val.UsePhis {
			crossed := st.crossed
			if phi.HeaderLoop != nil && s.isBackEdgeArg(phi, st.val) {
				crossed = merge(st.crossed, map[*ir.Loop]bool{phi.HeaderLoop: true})
			}
			work = append(work, state{val: phi, crossed: crossed})
		}
	}

	out := make([]ReachedUse, 0, len(uses))
	for r, crossed := range uses {
		out = append(out, ReachedUse{Ref: r, CrossesBackOf: crossed})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ref.ID < out[j].Ref.ID })
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
