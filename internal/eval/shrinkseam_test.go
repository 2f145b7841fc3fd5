package eval

import (
	"phpf/internal/dist"
	"phpf/internal/ir"
)

// SetShrinkSeam installs f as the walker's shrink seam (nil removes it), for
// the external tests that drive the concurrent backend through it.
func SetShrinkSeam(f func(proc int, l *ir.Loop, t0, m, c, n int64) (int64, int64)) {
	shrinkSeam = f
}

// SetAsideSeam installs f as the walker's aside seam (nil removes it): it
// decides, in place of State.aside's verdict me, whether the State bound to
// proc leaves aside the IF whose predicate is st.
func SetAsideSeam(f func(proc int, st *ir.Stmt, set dist.ProcSet, me bool) bool) {
	asideSeam = f
}
