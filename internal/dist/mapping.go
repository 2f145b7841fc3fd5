package dist

import (
	"fmt"
	"strings"

	"phpf/internal/ast"
	"phpf/internal/diag"
	"phpf/internal/ir"
)

// AxisMap describes how one array dimension is mapped.
type AxisMap struct {
	// Distributed is false for collapsed (purely local) dimensions.
	Distributed bool
	GridDim     int
	Kind        ast.DistKind // DistBlock or DistCyclic when Distributed
	// Offset shifts the index into the distribution space: element i lives
	// at template position i+Offset (from ALIGN b(i) WITH a(i+off)).
	Offset int64
	// Extent is the distribution-space extent (the distributee's dimension
	// size) and Block the block size ceil(Extent/gridShape[GridDim]).
	Extent int64
	Block  int64
}

// ArrayMap is the resolved mapping of one array onto the grid.
type ArrayMap struct {
	Var  *ir.Var
	Axes []AxisMap
	// Repl[d] is true when the array is replicated across grid dimension d
	// (grid dimensions not targeted by any axis).
	Repl []bool
}

// Mapping resolves all declarative directives of a program onto a concrete
// grid for a given processor count.
type Mapping struct {
	Grid   *Grid
	Arrays map[*ir.Var]*ArrayMap
}

// SameDistribution reports whether two axes cut their template alike, the
// offsets of what is aligned to it aside.
func (a AxisMap) SameDistribution(b AxisMap) bool {
	return a.Kind == b.Kind && a.Block == b.Block && a.Extent == b.Extent
}

// OwnerDim returns the grid coordinate owning index idx (1-based) along the
// axis, given the grid shape extent nproc.
func (a AxisMap) OwnerDim(idx int64, nproc int) int {
	t := idx + a.Offset - 1 // 0-based template position
	if t < 0 {
		t = 0
	}
	switch a.Kind {
	case ast.DistBlock:
		c := int(t / a.Block)
		if c >= nproc {
			c = nproc - 1
		}
		return c
	case ast.DistCyclic:
		return int(t % int64(nproc))
	}
	return 0
}

// OwnerRun returns how many consecutive terms of the progression idx,
// idx+delta, idx+2·delta, … are owned by the coordinate OwnerDim(idx, nproc)
// before the first that is not, capped at limit (≥ 1): the closed form that
// lets a loop whose subscript advances by delta per iteration ask "who owns
// this?" once per run of iterations instead of once per iteration. It is
// OwnerDim's inverse image, clamps and Offset included — under BLOCK the
// block around the position (the first reaching down, the last up, without
// end), under CYCLIC the single position (everything at and below the first)
// — walked in steps of delta. The progression must stay within int64.
func (a AxisMap) OwnerRun(idx, delta, limit int64, nproc int) int64 {
	if delta == 0 || nproc <= 1 || limit <= 1 {
		return limit
	}
	t := idx + a.Offset - 1 // 0-based template position, as in OwnerDim
	n := limit
	switch a.Kind {
	case ast.DistBlock:
		c := int64(a.OwnerDim(idx, nproc))
		switch {
		case delta > 0 && c < int64(nproc)-1:
			n = ((c+1)*a.Block-1-t)/delta + 1
		case delta < 0 && c > 0:
			n = (t-c*a.Block)/-delta + 1
		}
	case ast.DistCyclic:
		// Positions at and below 0 all clamp to coordinate 0; above, two
		// positions share a coordinate exactly when they differ by a
		// multiple of nproc.
		p := int64(nproc)
		switch {
		case delta > 0 && t < 0:
			// The clamped prefix, then whatever follows if it lands on
			// coordinate 0 again.
			n = (-t + delta - 1) / delta
			if first := t + n*delta; first%p == 0 {
				if delta%p == 0 {
					n = limit
				} else {
					n++
				}
			}
		case delta > 0: // t >= 0
			if delta%p != 0 {
				n = 1
			}
		case t <= 0: // delta < 0: clamped from here on
		case delta%p == 0:
			// The same coordinate down to the last position at or above 0,
			// and on through the clamped tail when that coordinate is 0.
			if t%p != 0 {
				n = t/-delta + 1
			}
		case t%p == 0 && t+delta <= 0:
			// Coordinate 0 stepping straight into the clamped tail.
		default:
			n = 1
		}
	}
	return min(n, limit)
}

// LocalCount returns how many indices of [1..Extent] map to coordinate c.
func (a AxisMap) LocalCount(c, nproc int) int64 {
	switch a.Kind {
	case ast.DistBlock:
		lo := int64(c)*a.Block + 1
		hi := lo + a.Block - 1
		if hi > a.Extent {
			hi = a.Extent
		}
		if lo > a.Extent {
			return 0
		}
		return hi - lo + 1
	case ast.DistCyclic:
		n := a.Extent / int64(nproc)
		if int64(c) < a.Extent%int64(nproc) {
			n++
		}
		return n
	}
	return a.Extent
}

// Owner returns the processor set owning element idx (1-based indices) of
// the array.
func (m *ArrayMap) Owner(g *Grid, idx []int64) ProcSet {
	s := AllProcs(g)
	// Grid dims not replicated and not set by any axis default to
	// coordinate 0 (cannot happen for well-formed mappings, but keep the
	// ownership total).
	for d, repl := range m.Repl {
		if !repl {
			s = s.WithDim(d, 0)
		}
	}
	for dim := range m.Axes {
		if ax := &m.Axes[dim]; ax.Distributed {
			s = s.WithDim(ax.GridDim, ax.OwnerDim(idx[dim], g.Shape[ax.GridDim]))
		}
	}
	return s
}

// FullyReplicated reports whether the array lives on every processor.
func (m *ArrayMap) FullyReplicated() bool {
	for _, ax := range m.Axes {
		if ax.Distributed {
			return false
		}
	}
	for _, r := range m.Repl {
		if !r {
			return false
		}
	}
	return true
}

// LocalElems returns the number of elements of the array stored on one
// processor at the given coordinates.
func (m *ArrayMap) LocalElems(g *Grid, procCoords []int) int64 {
	n := int64(1)
	for dim, ax := range m.Axes {
		if !ax.Distributed {
			n *= m.Var.Dims[dim]
			continue
		}
		n *= ax.LocalCount(procCoords[ax.GridDim], g.Shape[ax.GridDim])
	}
	return n
}

// String renders the mapping of one array.
func (m *ArrayMap) String() string {
	s := m.Var.Name + "("
	for i, ax := range m.Axes {
		if i > 0 {
			s += ","
		}
		if !ax.Distributed {
			s += "*"
		} else {
			s += fmt.Sprintf("%s@g%d", ax.Kind, ax.GridDim)
			if ax.Offset != 0 {
				s += fmt.Sprintf("%+d", ax.Offset)
			}
		}
	}
	s += ")"
	for d, r := range m.Repl {
		if r {
			s += fmt.Sprintf(" repl:g%d", d)
		}
	}
	return s
}

// ResolveLenient interprets the program's directives for nprocs processors.
//
// The grid rank is taken from the PROCESSORS directive if present, else from
// the largest number of distributed dimensions in any DISTRIBUTE directive.
// The shape is a near-balanced factorization of nprocs (the PROCESSORS
// extents give relative ordering only, so one source program can be run at
// any processor count, as in the paper's experiments).
//
// Resolution degrades gracefully: a bad directive is skipped and recorded as
// a warning diagnostic (stage "mapping", code diag.CodeDirective) instead of
// aborting, and every array a skipped directive would have mapped falls back
// to replication (always a correct, if slower, mapping). The error return
// covers only conditions no mapping can be built under (nprocs < 1, a grid
// extent above MaxExtent).
func ResolveLenient(p *ir.Program, nprocs int) (*Mapping, []diag.Diagnostic, error) {
	if nprocs < 1 {
		return nil, nil, fmt.Errorf("dist: nprocs must be >= 1, got %d", nprocs)
	}
	var probs []diag.Diagnostic
	// report records a skipped directive.
	report := func(pos diag.Pos, subject, format string, args ...interface{}) {
		probs = append(probs, diag.Warningf("mapping", diag.CodeDirective, subject, pos, format, args...))
	}
	// A directive implying a grid rank above MaxRank is reported like any
	// other bad directive and skipped: it neither shapes the grid nor maps
	// its arrays (they fall back to replication).
	rank := 0
	for _, d := range p.Dirs {
		n := impliedRank(d)
		if n > MaxRank {
			var pos diag.Pos
			var subject string
			switch x := d.(type) {
			case *ast.ProcessorsDir:
				pos, subject = diag.Pos{Line: x.Line, Col: x.Col}, x.Name
			case *ast.DistributeDir:
				pos, subject = diag.Pos{Line: x.Line, Col: x.Col}, strings.Join(x.Arrays, ",")
			}
			report(pos, subject, "%s implies a processor grid of rank %d; the maximum is %d", subject, n, MaxRank)
			continue
		}
		if n > rank {
			rank = n
		}
	}
	if rank == 0 {
		rank = 1
	}
	shape := FactorShape(nprocs, rank)
	if shape[0] > MaxExtent { // FactorShape sorts descending
		return nil, nil, fmt.Errorf("dist: %d processors put %d along one dimension of the rank-%d grid; the maximum is %d",
			nprocs, shape[0], rank, MaxExtent)
	}
	grid := NewGrid(shape...)

	m := &Mapping{Grid: grid, Arrays: map[*ir.Var]*ArrayMap{}}

	// Pass 1: direct distributions.
	for _, d := range p.Dirs {
		dd, ok := d.(*ast.DistributeDir)
		if !ok || impliedRank(dd) > MaxRank {
			continue // not a distribution, or reported above
		}
		for _, name := range dd.Arrays {
			v := p.LookupVar(name)
			if v == nil {
				report(diag.Pos{Line: dd.Line, Col: dd.Col}, name, "distribute of undeclared %s", name)
				continue
			}
			if !v.IsArray() {
				report(diag.Pos{Line: dd.Line, Col: dd.Col}, name, "distribute of scalar %s", name)
				continue
			}
			if len(dd.Formats) != v.Rank() {
				report(diag.Pos{Line: dd.Line, Col: dd.Col}, name, "distribute of %s: %d formats for rank %d",
					name, len(dd.Formats), v.Rank())
				continue
			}
			if _, dup := m.Arrays[v]; dup {
				report(diag.Pos{Line: dd.Line, Col: dd.Col}, name, "%s mapped twice", name)
				continue
			}
			am, derr := DistributeArray(grid, v, dd.Formats)
			if derr != nil {
				report(diag.Pos{Line: dd.Line, Col: dd.Col}, name, "%v", derr)
				continue
			}
			m.Arrays[v] = am
		}
	}

	// Pass 2: alignments (may chain; iterate until resolved).
	type pending struct {
		dir   *ast.AlignDir
		array *ir.Var
	}
	var work []pending
	for _, d := range p.Dirs {
		ad, ok := d.(*ast.AlignDir)
		if !ok {
			continue
		}
		for _, name := range ad.Arrays {
			v := p.LookupVar(name)
			if v == nil {
				report(diag.Pos{Line: ad.Line, Col: ad.Col}, name, "align of undeclared %s", name)
				continue
			}
			work = append(work, pending{dir: ad, array: v})
		}
	}
	for len(work) > 0 {
		progress := false
		var next []pending
		for _, w := range work {
			target := p.LookupVar(w.dir.Target)
			if target == nil {
				report(diag.Pos{Line: w.dir.Line, Col: w.dir.Col}, w.array.Name, "align target %s undeclared", w.dir.Target)
				progress = true
				continue
			}
			tm, ok := m.Arrays[target]
			if !ok {
				next = append(next, w)
				continue
			}
			am, aerr := AlignArray(grid, w.array, w.dir, target, tm)
			if aerr != nil {
				report(diag.Pos{Line: w.dir.Line, Col: w.dir.Col}, w.array.Name, "%v", aerr)
				progress = true
				continue
			}
			if _, dup := m.Arrays[w.array]; dup {
				report(diag.Pos{Line: w.dir.Line, Col: w.dir.Col}, w.array.Name, "%s mapped twice", w.array.Name)
				progress = true
				continue
			}
			m.Arrays[w.array] = am
			progress = true
		}
		if !progress {
			// Abandon the whole stuck chain; those arrays stay replicated.
			// Record every member so nothing is silently dropped.
			for _, w := range next {
				report(diag.Pos{Line: w.dir.Line, Col: w.dir.Col}, w.array.Name,
					"alignment chain for %s cannot be resolved", w.array.Name)
			}
			next = nil
		}
		work = next
	}

	// Arrays with no mapping are replicated (HPF default for unmapped data
	// under our compilation model).
	for _, v := range p.VarList {
		if !v.IsArray() {
			continue
		}
		if _, ok := m.Arrays[v]; !ok {
			m.Arrays[v] = ReplicatedArray(grid, v)
		}
	}
	return m, probs, nil
}

// impliedRank returns the processor-grid rank a directive asks for: the
// extents of a PROCESSORS, the distributed dimensions of a DISTRIBUTE, zero
// for anything else.
func impliedRank(d ast.Directive) int {
	switch x := d.(type) {
	case *ast.ProcessorsDir:
		return len(x.Extents)
	case *ast.DistributeDir:
		n := 0
		for _, f := range x.Formats {
			if f.Kind != ast.DistNone {
				n++
			}
		}
		return n
	}
	return 0
}

// DistributeArray builds the ArrayMap for a directly distributed array. The
// i-th non-collapsed format maps to grid dimension i.
func DistributeArray(grid *Grid, v *ir.Var, formats []ast.DistFormat) (*ArrayMap, error) {
	am := &ArrayMap{Var: v, Axes: make([]AxisMap, v.Rank()), Repl: make([]bool, grid.Rank())}
	gd := 0
	for dim, f := range formats {
		if f.Kind == ast.DistNone {
			am.Axes[dim] = AxisMap{Distributed: false, Extent: v.Dims[dim]}
			continue
		}
		if gd >= grid.Rank() {
			return nil, fmt.Errorf("distribute of %s uses more dimensions than the %s grid",
				v.Name, grid)
		}
		ext := v.Dims[dim]
		am.Axes[dim] = AxisMap{
			Distributed: true,
			GridDim:     gd,
			Kind:        f.Kind,
			Extent:      ext,
			Block:       ceilDiv(ext, int64(grid.Shape[gd])),
		}
		gd++
	}
	// Unused grid dims (grid rank exceeds distributed dims): replicate.
	used := make([]bool, grid.Rank())
	for _, ax := range am.Axes {
		if ax.Distributed {
			used[ax.GridDim] = true
		}
	}
	for d := range am.Repl {
		am.Repl[d] = !used[d]
	}
	return am, nil
}

// ReplicatedArray builds a fully replicated mapping.
func ReplicatedArray(grid *Grid, v *ir.Var) *ArrayMap {
	am := &ArrayMap{Var: v, Axes: make([]AxisMap, v.Rank()), Repl: make([]bool, grid.Rank())}
	for dim := range am.Axes {
		am.Axes[dim] = AxisMap{Distributed: false, Extent: v.Dims[dim]}
	}
	for d := range am.Repl {
		am.Repl[d] = true
	}
	return am
}

// AlignArray builds the ArrayMap of an array aligned with a target:
// source dummy k appearing as target subscript dummy+off maps source dim k
// to the target dim's distribution (with offset). Target "*" subscripts
// replicate over that target dim's grid dimension. The ":" dummy form
// denotes identity alignment of all dimensions.
func AlignArray(grid *Grid, v *ir.Var, ad *ast.AlignDir, target *ir.Var, tm *ArrayMap) (*ArrayMap, error) {
	am := &ArrayMap{Var: v, Axes: make([]AxisMap, v.Rank()), Repl: make([]bool, grid.Rank())}
	// Identity form: align (:) with t(:).
	identity := len(ad.Dummies) == 1 && ad.Dummies[0] == ":"
	if identity {
		if v.Rank() != target.Rank() {
			return nil, fmt.Errorf("align (:) of %s with %s: rank mismatch", v.Name, target.Name)
		}
		copy(am.Axes, tm.Axes)
		copy(am.Repl, tm.Repl)
		return am, nil
	}
	if len(ad.Dummies) != v.Rank() {
		return nil, fmt.Errorf("align of %s: %d dummies for rank %d", v.Name, len(ad.Dummies), v.Rank())
	}
	if len(ad.Subs) != target.Rank() {
		return nil, fmt.Errorf("align with %s: %d subscripts for rank %d",
			target.Name, len(ad.Subs), target.Rank())
	}
	// Start collapsed everywhere.
	for dim := range am.Axes {
		am.Axes[dim] = AxisMap{Distributed: false, Extent: v.Dims[dim]}
	}
	used := make([]bool, grid.Rank())
	for tdim, sub := range ad.Subs {
		tax := tm.Axes[tdim]
		switch {
		case sub.Star:
			// Replicated over the target dim's grid dimension.
			if tax.Distributed {
				am.Repl[tax.GridDim] = true
				used[tax.GridDim] = true
			}
		case sub.Const:
			// Fixed position along that target dim: pin to its owner's
			// coordinate. Represent as an axis-less fixed dimension by
			// adding a zero-extent pseudo axis: simplest is to fold into
			// Repl=false with owner coordinate 0 handling; we instead
			// reject for now (not used by the paper's codes).
			if tax.Distributed {
				return nil, fmt.Errorf("align with constant subscript on distributed dim of %s not supported", target.Name)
			}
		case sub.Dummy == ":":
			return nil, fmt.Errorf("':' subscript requires the (:) dummy form")
		default:
			// Find the source dim with this dummy.
			sdim := -1
			for k, du := range ad.Dummies {
				if du == sub.Dummy {
					sdim = k
				}
			}
			if sdim < 0 {
				return nil, fmt.Errorf("align subscript %s names unknown dummy", sub.Dummy)
			}
			if tax.Distributed {
				am.Axes[sdim] = AxisMap{
					Distributed: true,
					GridDim:     tax.GridDim,
					Kind:        tax.Kind,
					Offset:      tax.Offset + sub.Offset,
					Extent:      tax.Extent,
					Block:       tax.Block,
				}
				used[tax.GridDim] = true
			}
		}
	}
	// Inherit target replication; any grid dim untouched by the alignment
	// is replicated (the source has no coordinate there).
	for d := range am.Repl {
		if tm.Repl[d] {
			am.Repl[d] = true
			used[d] = true
		}
		if !used[d] {
			am.Repl[d] = true
		}
	}
	return am, nil
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }
