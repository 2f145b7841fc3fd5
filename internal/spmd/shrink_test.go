package spmd

import (
	"strings"
	"testing"

	"phpf/internal/ast"
	"phpf/internal/core"
	"phpf/internal/dist"
	"phpf/internal/programs"
)

func TestShrinkSimpleLocalLoop(t *testing.T) {
	src := `
program t
parameter n = 100
real a(n), b(n)
integer i
!hpf$ align b(i) with a(i)
!hpf$ distribute (block) :: a
do i = 1, n
  a(i) = b(i) * 2.0
end do
end
`
	p := gen(t, src, 4, core.DefaultOptions())
	shrink := p.ShrinkableLoops()
	loop := p.Res.Prog.Loops[0]
	info := shrink[loop.ID]
	if info == nil {
		t.Fatal("local loop should shrink")
	}
	if info.GridDim != 0 || info.Kind != ast.DistBlock || info.Block != 25 {
		t.Errorf("info = %+v", info)
	}
	if info.MaxSkew != 0 {
		t.Errorf("skew = %d, want 0", info.MaxSkew)
	}
	// Local ranges partition [1,100] into 25-iteration chunks.
	total := int64(0)
	for c := 0; c < 4; c++ {
		_, _, n := info.LocalRange(c, 4, 1, 1, 100)
		if n == 0 {
			t.Fatalf("coord %d has no range", c)
		}
		total += n
	}
	if total != 100 {
		t.Errorf("ranges cover %d iterations, want 100", total)
	}
}

func TestShrinkWithHalo(t *testing.T) {
	// The stencil writes a(i) but x is aligned with a(i+1)-style shifted
	// consumers; the skew extends the local range.
	src := `
program t
parameter n = 100
real a(n), b(n)
integer i
!hpf$ align b(i) with a(i)
!hpf$ distribute (block) :: a
do i = 2, n-1
  a(i) = b(i-1) + b(i+1)
end do
end
`
	p := gen(t, src, 4, core.DefaultOptions())
	info := p.ShrinkableLoops()[0]
	if info == nil {
		t.Fatal("stencil loop should shrink (communication is hoisted)")
	}
	first, stride, n := info.LocalRange(1, 4, 2, 1, 98)
	if lo, hi := 2+first, 2+first+(n-1)*stride; stride != 1 || lo > 26 || hi < 50 {
		t.Errorf("range = [%d,%d] by %d", lo, hi, stride)
	}
}

func TestNoShrinkWithReplicatedStatement(t *testing.T) {
	src := `
program t
parameter n = 100
real a(n), b(n), u(n)
real x
integer i
!hpf$ align b(i) with a(i)
!hpf$ distribute (block) :: a
do i = 1, n
  x = u(i)
  a(i) = b(i) + x
end do
end
`
	// u is unmapped/replicated; x's rhs is replicated → x privatized
	// without alignment (union guard), which still shrinks. Force a truly
	// replicated statement instead: a scalar needed by all (loop bound of
	// an inner loop is overkill here, so use the naive strategy).
	opts := core.DefaultOptions()
	opts.Scalars = core.ScalarsReplicated
	p := gen(t, src, 4, opts)
	if info := p.ShrinkableLoops()[0]; info != nil {
		t.Errorf("loop with a replicated statement must not shrink: %v", info)
	}
}

func TestNoShrinkWithInnerLoopComm(t *testing.T) {
	// Producer alignment leaves x's communication inside the loop (the
	// Figure 1 y-case): the loop must not shrink.
	src := `
program t
parameter n = 100
real a(n), b(n)
real x
integer i
!hpf$ align b(i) with a(i)
!hpf$ distribute (block) :: a
do i = 2, n-1
  x = a(i) + b(i)
  a(i+1) = x * 0.5
end do
end
`
	p := gen(t, src, 4, core.DefaultOptions())
	if info := p.ShrinkableLoops()[0]; info != nil {
		t.Errorf("loop with per-instance communication must not shrink: %v", info)
	}
}

func TestShrinkOuterLoopOnly(t *testing.T) {
	// Column distribution: the j-loop shrinks, the i-loop does not
	// partition anything (its dimension is collapsed) but is harmless.
	src := `
program t
parameter n = 64
real a(n,n), b(n,n)
integer i, j
!hpf$ align b(i,j) with a(i,j)
!hpf$ distribute (*,block) :: a
do j = 1, n
  do i = 1, n
    a(i,j) = b(i,j) * 2.0
  end do
end do
end
`
	p := gen(t, src, 4, core.DefaultOptions())
	shrink := p.ShrinkableLoops()
	jLoop, iLoop := p.Res.Prog.Loops[0], p.Res.Prog.Loops[1]
	if shrink[jLoop.ID] == nil {
		t.Error("j-loop should shrink over the column distribution")
	}
	if shrink[iLoop.ID] != nil {
		t.Error("i-loop has no partitioned dimension to shrink over")
	}
}

// TestLocalRangeCoversOwners brute-forces LocalRange: under BLOCK and CYCLIC,
// P = 1…8, halos 0–2, steps ±1 and ±2, and loops of no, one and several
// iterations, the iterations a coordinate runs are iterations of the loop,
// counted once, and include every one at which OwnerDim puts a position the
// body's statements execute at — the iteration's position plus any skew the
// halo allows — on that coordinate. Without a halo, and where OwnerDim clamps
// no position, they are exactly those: the range shrinks.
func TestLocalRangeCoversOwners(t *testing.T) {
	for _, kind := range []ast.DistKind{ast.DistBlock, ast.DistCyclic} {
		for nproc := 1; nproc <= 8; nproc++ {
			for _, block := range []int64{1, 2, 3, 5} {
				for halo := int64(0); halo <= 2; halo++ {
					for _, offset := range []int64{-2, 0, 3} {
						for _, step := range []int64{1, -1, 2, -2} {
							for _, lo := range []int64{-3, 1, 4, 17} {
								for _, n := range []int64{0, 1, 2, 7, 23} {
									info := &ShrinkInfo{AxisMap: dist.AxisMap{Distributed: true, Kind: kind, Block: block, Offset: offset}, MaxSkew: halo}
									checkLocalRange(t, info, nproc, lo, step, n)
								}
							}
						}
					}
				}
			}
		}
	}
}

func checkLocalRange(t *testing.T, info *ShrinkInfo, nproc int, lo, step, n int64) {
	t.Helper()
	owner := dist.AxisMap{Kind: info.Kind, Block: info.Block}
	exact := info.MaxSkew == 0 && lo+info.Offset-1+min(0, (n-1)*step) >= 0
	for coord := 0; coord < nproc; coord++ {
		first, stride, count := info.LocalRange(coord, nproc, lo, step, n)
		runs := map[int64]bool{}
		for k := int64(0); k < count; k++ {
			if it := first + k*stride; it < 0 || it >= n || runs[it] {
				t.Fatalf("%+v P=%d coord %d, loop from %d by %d, %d iterations: iteration %d is not one of the loop's, or repeats",
					info, nproc, coord, lo, step, n, it)
			}
			runs[first+k*stride] = true
		}
		for it := int64(0); it < n; it++ {
			owns := false
			for skew := -info.MaxSkew; skew <= info.MaxSkew; skew++ {
				owns = owns || owner.OwnerDim(lo+it*step+info.Offset+skew, nproc) == coord
			}
			if owns && !runs[it] || exact && runs[it] && !owns {
				t.Fatalf("%+v P=%d coord %d, loop from %d by %d, %d iterations: iteration %d: owned %v, run %v",
					info, nproc, coord, lo, step, n, it, owns, runs[it])
			}
		}
	}
}

// TestDumpMarksDGEFA pins what phpfc -dump spmd marks in DGEFA(48) at P = 4,
// each mark with the line it marks: the pivot search's IF, whose set is
// column k's owner, is left aside outside it, and so is the i-loop of it
// whole, since that set does not move with i; the IF around the row swap and
// the update, whose branches hold loops, is not. Dump, which the compile
// half's reports hold, marks neither.
func TestDumpMarksDGEFA(t *testing.T) {
	p := gen(t, programs.DGEFA(48), 4, core.DefaultOptions())
	var got []string
	lines := strings.Split(p.DumpSkips(), "\n")
	for i, line := range lines {
		if strings.Contains(line, "[skipped outside its set: ") || strings.Contains(line, "[all or none: ") {
			got = append(got, line, lines[i+1])
		}
	}
	want := []string{
		"  [all or none: no execution set in it moves with i]",
		"  do i",
		"    [skipped outside its set: its branches involve its set alone]",
		"    [union] s4 if (...)",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("marked lines:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if v := p.SkippableIfs()[7]; v.OK || v.Why != "a branch holds more than assignments" {
		t.Errorf("s7: %+v, want walked everywhere: a branch holds more than assignments", v)
	}
	if d := p.Dump(); strings.Contains(d, "[skipped") || strings.Contains(d, "[all or none") {
		t.Errorf("Dump marks the skips:\n%s", d)
	}
}
