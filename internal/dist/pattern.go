package dist

import (
	"fmt"
	"strings"

	"phpf/internal/ast"
	"phpf/internal/ir"
)

// DimPattern describes, symbolically, which coordinate of one grid dimension
// holds a reference's data, as a function of the enclosing loop indices.
type DimPattern struct {
	// Repl: the data is present at every coordinate of this grid dimension.
	Repl bool
	// Otherwise the coordinate is the one the axis (its Kind, Block, Extent
	// and Offset; GridDim is this dimension) assigns to position Sub.
	AxisMap
	Sub ir.Affine // affine subscript (Sub.OK false → data-dependent position)
}

// OwnerPattern is the symbolic owner of a reference: one DimPattern per grid
// dimension.
type OwnerPattern struct {
	Grid *Grid
	Dims []DimPattern
}

// Clone returns a deep copy (the Dims slice is not shared). Use before any
// in-place modification of a pattern obtained from shared state.
func (p OwnerPattern) Clone() OwnerPattern {
	dims := make([]DimPattern, len(p.Dims))
	copy(dims, p.Dims)
	return OwnerPattern{Grid: p.Grid, Dims: dims}
}

// ReplicatedPattern is the pattern of fully replicated data.
func ReplicatedPattern(g *Grid) OwnerPattern {
	dims := make([]DimPattern, g.Rank())
	for i := range dims {
		dims[i].Repl = true
	}
	return OwnerPattern{Grid: g, Dims: dims}
}

// PatternOf computes the owner pattern of an array reference under the
// array's mapping.
func PatternOf(g *Grid, am *ArrayMap, ref *ir.Ref) OwnerPattern {
	p := OwnerPattern{Grid: g, Dims: make([]DimPattern, g.Rank())}
	for d := range p.Dims {
		if am.Repl[d] {
			p.Dims[d].Repl = true
		} else {
			// Determined below by an axis, or pinned at coordinate 0.
			p.Dims[d] = DimPattern{Sub: ir.Affine{OK: true, Const: 1},
				AxisMap: AxisMap{Distributed: true, GridDim: d, Kind: ast.DistBlock, Block: 1, Extent: 1}}
		}
	}
	for dim, ax := range am.Axes {
		if ax.Distributed {
			p.Dims[ax.GridDim] = DimPattern{AxisMap: ax, Sub: ref.Subs[dim]}
		}
	}
	return p
}

// Shift returns the constant position offset from a to b — how far b's
// template position lies beyond a's at every iteration — when both are
// positions in one distribution whose subscripts differ by a constant
// (ir.Affine.Delta); otherwise 0 and false.
func (a DimPattern) Shift(b DimPattern) (int64, bool) {
	delta, ok := a.Sub.Delta(b.Sub)
	if !ok || a.Repl || b.Repl || !a.SameDistribution(b.AxisMap) {
		return 0, false
	}
	return delta + b.Offset - a.Offset, true
}

// SameDim reports whether two dim patterns denote the same coordinate at
// every iteration (two replicated dimensions do).
func SameDim(a, b DimPattern) bool {
	if a.Repl || b.Repl {
		return a.Repl && b.Repl
	}
	delta, ok := a.Shift(b)
	return ok && delta == 0
}

// Covers reports whether data with pattern src is present wherever pattern
// dst requires it, at every iteration (no communication needed).
func Covers(src, dst OwnerPattern) bool {
	for d := range src.Dims {
		if src.Dims[d].Repl {
			continue
		}
		if dst.Dims[d].Repl {
			return false // needed everywhere, held at one coordinate
		}
		if !SameDim(src.Dims[d], dst.Dims[d]) {
			return false
		}
	}
	return true
}

// CommClass classifies the communication needed to move data from src to
// dst.
type CommClass int

const (
	// CommNone: src covers dst.
	CommNone CommClass = iota
	// CommShift: owners differ by a constant position offset along grid
	// dimensions (nearest-neighbor style collective shift).
	CommShift
	// CommBcast: data at one coordinate needed at all coordinates of some
	// grid dimension.
	CommBcast
	// CommGeneral: anything else (data-dependent or unstructured).
	CommGeneral
)

func (c CommClass) String() string {
	switch c {
	case CommNone:
		return "none"
	case CommShift:
		return "shift"
	case CommBcast:
		return "broadcast"
	}
	return "general"
}

// Classify determines the communication class for moving a reference's data
// from src to dst.
func Classify(src, dst OwnerPattern) CommClass {
	if Covers(src, dst) {
		return CommNone
	}
	bcast, shift, general := false, false, false
	for d := range src.Dims {
		s, t := src.Dims[d], dst.Dims[d]
		switch delta, ok := s.Shift(t); {
		case s.Repl:
		case t.Repl:
			bcast = true
		case !ok:
			general = true
		case delta != 0: // same distribution, constant position offset
			shift = true
		}
	}
	switch {
	case general:
		return CommGeneral
	case bcast:
		return CommBcast
	case shift:
		return CommShift
	default:
		return CommGeneral
	}
}

// VariesIn reports whether the pattern's coordinate in grid dimension d can
// change across iterations of loop l.
func (p OwnerPattern) VariesIn(d int, l *ir.Loop) bool {
	dp := p.Dims[d]
	if dp.Repl {
		return false
	}
	return dp.Sub.VariesIn(l)
}

// VariesInLoop reports whether any coordinate changes across iterations of l.
func (p OwnerPattern) VariesInLoop(l *ir.Loop) bool {
	for d := range p.Dims {
		if p.VariesIn(d, l) {
			return true
		}
	}
	return false
}

// IsReplicated reports whether the pattern covers the whole grid.
func (p OwnerPattern) IsReplicated() bool {
	for _, d := range p.Dims {
		if !d.Repl {
			return false
		}
	}
	return true
}

func (p OwnerPattern) String() string {
	parts := make([]string, len(p.Dims))
	for d, dp := range p.Dims {
		if dp.Repl {
			parts[d] = "*"
		} else {
			parts[d] = fmt.Sprintf("%s[%s%+d]", dp.Kind, dp.Sub, dp.Offset)
		}
	}
	return "<" + strings.Join(parts, "|") + ">"
}
