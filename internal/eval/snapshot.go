// Dense checkpoint snapshots of the slot-indexed memory image. A snapshot
// is a flat copy of every scalar, loop index, and array payload plus the
// current dynamic mappings — cheap because State keeps them all in dense
// slices (the point of the slot-indexed layout).
package eval

import "phpf/internal/dist"

// Snapshot is an immutable copy of a State's mutable memory image, taken by
// State.Snapshot and reinstalled by State.Restore.
type Snapshot struct {
	scalars   []float64
	scalarSet []bool
	indices   []int64
	arrays    [][]float64
	dyn       []*dist.ArrayMap
	// partials deep-copies the privatized-reduction partial tables, so a
	// restart replays in-flight private accumulations instead of losing them.
	partials [][]float64
}

// Snapshot copies the memory image. Array payloads are deep-copied; dynamic
// mappings are shared by pointer (ArrayMaps are immutable — redistribution
// swaps the pointer, never mutates the map).
func (s *State) Snapshot() *Snapshot {
	snap := &Snapshot{
		scalars:   append([]float64(nil), s.scalars...),
		scalarSet: append([]bool(nil), s.scalarSet...),
		indices:   append([]int64(nil), s.indices...),
		arrays:    make([][]float64, len(s.arrays)),
		dyn:       append([]*dist.ArrayMap(nil), s.dyn...),
		partials:  make([][]float64, len(s.partials)),
	}
	for i, a := range s.arrays {
		if a != nil {
			snap.arrays[i] = append([]float64(nil), a...)
		}
	}
	for i, t := range s.partials {
		if t != nil {
			snap.partials[i] = append([]float64(nil), t...)
		}
	}
	return snap
}

// Restore overwrites the memory image from a snapshot of the same program
// and advances the epoch (and leaves any statement instance or owner run in
// flight) so memoized execution sets recompute against the restored mappings.
// The snapshot stays valid for further restores.
func (s *State) Restore(snap *Snapshot) {
	copy(s.scalars, snap.scalars)
	copy(s.scalarSet, snap.scalarSet)
	copy(s.indices, snap.indices)
	for i, a := range snap.arrays {
		if a != nil {
			copy(s.arrays[i], a)
		}
	}
	copy(s.dyn, snap.dyn)
	for i, t := range snap.partials {
		if t != nil {
			copy(s.partials[i], t)
		}
	}
	s.epoch++
	s.endRun()
	s.err = nil
}
