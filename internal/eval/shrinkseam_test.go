package eval

import "phpf/internal/ir"

// SetShrinkSeam installs f as the walker's shrink seam (nil removes it), for
// the external tests that drive the concurrent backend through it.
func SetShrinkSeam(f func(proc int, l *ir.Loop, t0, m, c, n int64) (int64, int64)) {
	shrinkSeam = f
}
