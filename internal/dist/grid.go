// Package dist implements HPF data mapping: processor grids, DISTRIBUTE
// formats (block / cyclic / collapsed), ALIGN relations, and the ownership
// functions that the owner-computes rule and communication analysis are
// built on.
package dist

import (
	"fmt"
	"strings"
)

// MaxRank caps the rank of a processor grid (Fortran's limit on array rank,
// hence on the dimensions a DISTRIBUTE can partition) and MaxExtent the
// processors along one grid dimension. The caps let a ProcSet pack its
// coordinates into two machine words, so owner and execution sets are plain
// values that travel in registers and never touch the heap. Resolve rejects
// directives and processor counts beyond them before any grid is built.
const (
	MaxRank   = 7
	MaxExtent = 1<<coordBits - 1
)

// Grid is a (virtual) processor grid of one or more dimensions.
type Grid struct {
	Shape []int
}

// NewGrid returns a grid with the given shape. A shape beyond MaxRank or
// MaxExtent is a caller bug (Resolve validates what directives and processor
// counts imply first) and panics.
func NewGrid(shape ...int) *Grid {
	if len(shape) > MaxRank {
		panic(fmt.Sprintf("dist: grid rank %d exceeds the maximum %d", len(shape), MaxRank))
	}
	for _, n := range shape {
		if n > MaxExtent {
			panic(fmt.Sprintf("dist: grid extent %d exceeds the maximum %d", n, MaxExtent))
		}
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Grid{Shape: s}
}

// Rank returns the number of grid dimensions.
func (g *Grid) Rank() int { return len(g.Shape) }

// Size returns the total number of processors.
func (g *Grid) Size() int {
	n := 1
	for _, d := range g.Shape {
		n *= d
	}
	return n
}

// Coords converts a linear processor id (row-major, dimension 0 slowest) to
// grid coordinates.
func (g *Grid) Coords(id int) []int {
	c := make([]int, len(g.Shape))
	for d := len(g.Shape) - 1; d >= 0; d-- {
		c[d] = id % g.Shape[d]
		id /= g.Shape[d]
	}
	return c
}

// ID converts grid coordinates to the linear processor id.
func (g *Grid) ID(coords []int) int {
	id := 0
	for d, c := range coords {
		id = id*g.Shape[d] + c
	}
	return id
}

func (g *Grid) String() string {
	parts := make([]string, len(g.Shape))
	for i, d := range g.Shape {
		parts[i] = fmt.Sprintf("%d", d)
	}
	return "(" + strings.Join(parts, "x") + ")"
}

// FactorShape factors nprocs into rank near-balanced dimensions (larger
// factors first), e.g. 16 over rank 2 → [4 4], 8 over rank 2 → [4 2].
func FactorShape(nprocs, rank int) []int {
	if rank <= 1 {
		return []int{nprocs}
	}
	shape := make([]int, rank)
	for i := range shape {
		shape[i] = 1
	}
	remaining := nprocs
	// Repeatedly take the smallest prime factor and assign it to the
	// currently smallest dimension; assign large factors first for balance.
	var factors []int
	for f := 2; f*f <= remaining; f++ {
		for remaining%f == 0 {
			factors = append(factors, f)
			remaining /= f
		}
	}
	if remaining > 1 {
		factors = append(factors, remaining)
	}
	// Largest factors first.
	for i := len(factors) - 1; i >= 0; i-- {
		// Find the smallest dimension.
		minDim := 0
		for d := 1; d < rank; d++ {
			if shape[d] < shape[minDim] {
				minDim = d
			}
		}
		shape[minDim] *= factors[i]
	}
	// Sort descending so dimension 0 is largest (deterministic layout).
	for i := 0; i < rank; i++ {
		for j := i + 1; j < rank; j++ {
			if shape[j] > shape[i] {
				shape[i], shape[j] = shape[j], shape[i]
			}
		}
	}
	return shape
}

// ProcSet is a rectangular set of processors described per grid dimension:
// either a fixed coordinate or "all coordinates". This closed form covers
// everything owner-computes needs (owners of a reference, replication sets,
// reduction groups). A ProcSet is a plain three-word value: copying it copies
// the set and no operation allocates.
type ProcSet struct {
	grid *Grid
	// lo packs dimensions 0-3 and hi dimensions 4-6, coordBits each, biased
	// by one: 0 stands for all coordinates of the dimension, c+1 for the
	// fixed coordinate c. Dimensions at and beyond the grid's rank stay 0.
	lo, hi uint64
}

const (
	coordBits = 16
	coordMask = 1<<coordBits - 1
)

// at returns dimension d's biased coordinate (0 = all).
func (s ProcSet) at(d int) int {
	if d < 4 {
		return int(s.lo >> (uint(d) * coordBits) & coordMask)
	}
	return int(s.hi >> (uint(d-4) * coordBits) & coordMask)
}

// rank returns the rank of the set's grid (0 for the zero ProcSet).
func (s ProcSet) rank() int {
	if s.grid == nil {
		return 0
	}
	return len(s.grid.Shape)
}

// AllProcs is the set of all processors in the grid.
func AllProcs(g *Grid) ProcSet { return ProcSet{grid: g} }

// Single is the set of processor id alone.
func Single(g *Grid, id int) ProcSet {
	s := ProcSet{grid: g}
	for d := len(g.Shape) - 1; d >= 0; d-- {
		s, id = s.WithDim(d, id%g.Shape[d]), id/g.Shape[d]
	}
	return s
}

// Grid returns the grid this set ranges over.
func (s ProcSet) Grid() *Grid { return s.grid }

// Fixed reports whether dimension d has a fixed coordinate, and which.
func (s ProcSet) Fixed(d int) (int, bool) {
	c := s.at(d)
	return c - 1, c != 0
}

// WithDim returns a copy with dimension d fixed to c (or all if c == -1).
func (s ProcSet) WithDim(d, c int) ProcSet {
	if d < 4 {
		sh := uint(d) * coordBits
		s.lo = s.lo&^(coordMask<<sh) | uint64(c+1)<<sh
	} else {
		sh := uint(d-4) * coordBits
		s.hi = s.hi&^(coordMask<<sh) | uint64(c+1)<<sh
	}
	return s
}

// IsAll reports whether the set covers the whole grid.
func (s ProcSet) IsAll() bool { return s.lo|s.hi == 0 }

// IsSingle reports whether the set is a single processor, and its id.
func (s ProcSet) IsSingle() (int, bool) {
	id := 0
	for d, n := range s.grid.Shape {
		c := s.at(d)
		if c == 0 {
			return 0, false
		}
		id = id*n + c - 1
	}
	return id, true
}

// Count returns the number of processors in the set.
func (s ProcSet) Count() int {
	n := 1
	for d, ext := range s.grid.Shape {
		if s.at(d) == 0 {
			n *= ext
		}
	}
	return n
}

// Contains reports whether processor id is in the set.
func (s ProcSet) Contains(id int) bool {
	if s.IsAll() {
		return true
	}
	shape := s.grid.Shape
	if len(shape) == 1 { // the one dimension is fixed: its biased coordinate is lo
		return s.lo == uint64(id+1)
	}
	// Decode the id inline (dimension 0 slowest) instead of materializing
	// the coordinate vector; this runs on per-instance paths.
	for d := len(shape) - 1; d >= 0; d-- {
		ext := shape[d]
		c := id % ext
		id /= ext
		if w := s.at(d); w != 0 && c != w-1 {
			return false
		}
	}
	return true
}

// First returns the smallest processor id in the set (the deterministic
// representative Procs()[0] names, without building the slice).
func (s ProcSet) First() int {
	id := 0
	for d, n := range s.grid.Shape {
		c := s.at(d)
		if c != 0 {
			c--
		}
		id = id*n + c
	}
	return id
}

// Each calls f for every processor id in the set, ascending.
func (s ProcSet) Each(f func(id int)) {
	shape := s.grid.Shape
	if s.IsAll() {
		for id, n := 0, s.grid.Size(); id < n; id++ {
			f(id)
		}
		return
	}
	// An odometer over the free dimensions, the last one fastest, visits
	// the ids in ascending order without decoding any of them.
	var c [MaxRank]int
	id := 0
	for d, n := range shape {
		if w := s.at(d); w != 0 {
			c[d] = w - 1
		}
		id = id*n + c[d]
	}
	for {
		f(id)
		d, stride := len(shape)-1, 1
		for ; d >= 0; d-- {
			if s.at(d) == 0 {
				if c[d]++; c[d] < shape[d] {
					id += stride
					break
				}
				id -= (shape[d] - 1) * stride
				c[d] = 0
			}
			stride *= shape[d]
		}
		if d < 0 {
			return
		}
	}
}

// Append appends the set's processor ids but except (-1: none) to ids,
// ascending, and returns the extended list.
func (s ProcSet) Append(ids []int32, except int) []int32 {
	s.Each(func(id int) {
		if id != except {
			ids = append(ids, int32(id))
		}
	})
	return ids
}

// Procs enumerates the processor ids in the set, ascending.
func (s ProcSet) Procs() []int {
	out := make([]int, 0, s.Count())
	s.Each(func(id int) { out = append(out, id) })
	return out
}

// Union returns the smallest rectangular set covering both (dimension-wise:
// coordinates that differ become "all"). This over-approximation keeps
// owner sets in closed form; exact for the patterns owner-computes yields.
func (s ProcSet) Union(o ProcSet) ProcSet {
	for d := range s.grid.Shape {
		if s.at(d) != o.at(d) {
			s = s.WithDim(d, -1)
		}
	}
	return s
}

// CoversSet reports whether every processor of o is in s.
func (s ProcSet) CoversSet(o ProcSet) bool {
	for d := range s.grid.Shape {
		// s spans the dimension, or o is fixed at the same coordinate.
		if c := s.at(d); c != 0 && o.at(d) != c {
			return false
		}
	}
	return true
}

// Equal reports set equality.
func (s ProcSet) Equal(o ProcSet) bool {
	return s.rank() == o.rank() && s.lo == o.lo && s.hi == o.hi
}

func (s ProcSet) String() string {
	parts := make([]string, s.rank())
	for d := range parts {
		if c, ok := s.Fixed(d); ok {
			parts[d] = fmt.Sprintf("%d", c)
		} else {
			parts[d] = "*"
		}
	}
	return "P(" + strings.Join(parts, ",") + ")"
}
