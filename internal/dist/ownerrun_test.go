package dist

import (
	"fmt"
	"testing"

	"phpf/internal/ast"
)

// runLoop is one loop over a subscript c0 + coef·v on a distributed axis:
// the shape the interpreter partitions into owner runs at loop entry.
type runLoop struct {
	ax           AxisMap
	nproc        int
	c0, coef     int64
	lo, hi, step int64
}

func (l runLoop) String() string {
	return fmt.Sprintf("%s extent %d block %d offset %d on %d procs, subscript %d%+d*v, v = %d..%d by %d",
		l.ax.Kind, l.ax.Extent, l.ax.Block, l.ax.Offset, l.nproc, l.c0, l.coef, l.lo, l.hi, l.step)
}

// checkOwnerRuns partitions the loop the way the interpreter does — OwnerRun
// at the first iteration not yet covered, capped at the iterations left —
// and holds the partition to brute force: the runs tile the iteration space
// exactly, OwnerDim at every iteration of a run is the run's coordinate, and
// each run is maximal (the iteration after it, if any, has another owner).
func checkOwnerRuns(l runLoop) error {
	trips := int64(0)
	if (l.step > 0 && l.lo <= l.hi) || (l.step < 0 && l.lo >= l.hi) {
		trips = (l.hi-l.lo)/l.step + 1
	}
	owner := func(v int64) int { return l.ax.OwnerDim(l.c0+l.coef*v, l.nproc) }
	v, left := l.lo, trips
	for left > 0 {
		n := l.ax.OwnerRun(l.c0+l.coef*v, l.coef*l.step, left, l.nproc)
		if n < 1 || n > left {
			return fmt.Errorf("run at v=%d has length %d with %d iterations left", v, n, left)
		}
		c := owner(v)
		for k := int64(1); k < n; k++ {
			if got := owner(v + k*l.step); got != c {
				return fmt.Errorf("run of %d at v=%d (coordinate %d): iteration v=%d is owned by %d",
					n, v, c, v+k*l.step, got)
			}
		}
		if n < left && owner(v+n*l.step) == c {
			return fmt.Errorf("run of %d at v=%d (coordinate %d) is not maximal: v=%d has the same owner",
				n, v, c, v+n*l.step)
		}
		v, left = v+n*l.step, left-n
	}
	return nil
}

// TestOwnerRunPartitionsExactly sweeps small loops exhaustively over both
// kinds, every processor count 1…17, offsets and coefficients and steps of
// either sign, extents with short and empty last blocks, and bounds that
// start below the first position (clamped to coordinate 0), run past the last
// (clamped to the last coordinate under BLOCK), are empty, and make one trip.
func TestOwnerRunPartitionsExactly(t *testing.T) {
	checked := 0
	for _, kind := range []ast.DistKind{ast.DistBlock, ast.DistCyclic} {
		for nproc := 1; nproc <= 17; nproc++ {
			for _, extent := range []int64{1, 7, 9, 16, 33} {
				ax := AxisMap{Distributed: true, Kind: kind, Extent: extent,
					Block: ceilDiv(extent, int64(nproc))}
				for _, ax.Offset = range []int64{-5, -1, 0, 2} {
					for _, coef := range []int64{-3, -1, 1, 2, int64(nproc), -2 * int64(nproc)} {
						for _, step := range []int64{-2, -1, 1, 3} {
							for _, b := range [][2]int64{{-6, 40}, {1, extent}, {3, 3}, {5, 4}, {0, 1}} {
								l := runLoop{ax: ax, nproc: nproc, c0: 1, coef: coef, lo: b[0], hi: b[1], step: step}
								if step < 0 {
									l.lo, l.hi = l.hi, l.lo
								}
								if err := checkOwnerRuns(l); err != nil {
									t.Fatalf("%v: %v", l, err)
								}
								checked++
							}
						}
					}
				}
			}
		}
	}
	// A block size that is not the extent's (owner patterns carry their own).
	for block := int64(1); block <= 5; block++ {
		l := runLoop{ax: AxisMap{Distributed: true, Kind: ast.DistBlock, Extent: 12, Block: block},
			nproc: 4, coef: 1, lo: -3, hi: 30, step: 1}
		if err := checkOwnerRuns(l); err != nil {
			t.Fatalf("%v: %v", l, err)
		}
		checked++
	}
	if checked < 80000 {
		t.Fatalf("only %d loops checked", checked)
	}
}

// TestOwnerRunLengths pins a few run lengths by hand.
func TestOwnerRunLengths(t *testing.T) {
	block := AxisMap{Distributed: true, Kind: ast.DistBlock, Extent: 1000, Block: 125}
	cyclic := AxisMap{Distributed: true, Kind: ast.DistCyclic, Extent: 96}
	const inf = 1 << 40
	cases := []struct {
		ax                AxisMap
		idx, delta, limit int64
		nproc             int
		want              int64
	}{
		{block, 1, 1, 1000, 8, 125},   // tp: 8 runs of 125
		{block, 126, 1, 875, 8, 125},  // the second block
		{block, 876, 1, 125, 8, 125},  // the last
		{block, 876, 1, inf, 8, inf},  // which never ends going up
		{block, 125, -1, inf, 8, inf}, // as the first never does going down
		{block, 300, -7, inf, 8, 8},   // positions 299 … 250 in steps of 7
		{block, 5, 0, 77, 8, 77},      // an invariant subscript
		{block, 5, 1, 77, 1, 77},      // a single processor
		{cyclic, 5, 1, inf, 16, 1},    // cyclic moves every iteration
		{cyclic, 5, 16, inf, 16, inf}, // unless the stride is the period
		{cyclic, -3, 1, inf, 16, 5},   // -3 … 1 clamp to position 0
		{cyclic, 33, -16, inf, 16, inf},
		{cyclic, 34, -16, inf, 16, 3}, // 33, 17, 1 then the clamped tail (coordinate 0)
	}
	for _, c := range cases {
		if got := c.ax.OwnerRun(c.idx, c.delta, c.limit, c.nproc); got != c.want {
			t.Errorf("%s block %d: OwnerRun(%d, %d, %d, %d) = %d, want %d",
				c.ax.Kind, c.ax.Block, c.idx, c.delta, c.limit, c.nproc, got, c.want)
		}
	}
}

// FuzzOwnerRun holds the closed form to brute force on arbitrary loops.
func FuzzOwnerRun(f *testing.F) {
	f.Add(false, int64(1000), int64(125), int64(0), 8, int64(0), int64(1), int64(1), int64(1000), int64(1))
	f.Add(true, int64(96), int64(6), int64(0), 16, int64(0), int64(1), int64(1), int64(96), int64(1))
	f.Add(false, int64(9), int64(3), int64(-4), 4, int64(2), int64(-3), int64(20), int64(-5), int64(-2))
	f.Add(true, int64(10), int64(1), int64(3), 5, int64(-7), int64(10), int64(-3), int64(9), int64(1))
	f.Add(true, int64(10), int64(1), int64(0), 3, int64(0), int64(-3), int64(-2), int64(12), int64(1))
	f.Add(false, int64(8), int64(2), int64(0), 17, int64(0), int64(1), int64(4), int64(3), int64(1))
	f.Fuzz(func(t *testing.T, cyclic bool, extent, block, offset int64, nproc int,
		c0, coef, lo, hi, step int64) {
		// Fold the inputs into the ranges a mapping can have and a brute-force
		// walk can afford; signs are kept.
		l := runLoop{
			ax: AxisMap{Distributed: true, Kind: ast.DistBlock,
				Extent: 1 + abs64(extent%200), Block: 1 + abs64(block%40), Offset: offset % 50},
			nproc: 1 + int(abs64(int64(nproc)%17)),
			c0:    c0 % 100, coef: coef % 40,
			lo: lo % 300, hi: hi % 300, step: step % 9,
		}
		if cyclic {
			l.ax.Kind = ast.DistCyclic
		}
		if l.step == 0 {
			l.step = 1
		}
		if err := checkOwnerRuns(l); err != nil {
			t.Fatalf("%v: %v", l, err)
		}
	})
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
