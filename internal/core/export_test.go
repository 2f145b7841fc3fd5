package core

import "phpf/internal/dist"

// SharedPatterns returns the patterns RefPattern, ScalarPattern and
// patternOf share: the array references' asked so far, by Ref.ID (nil once
// the compile has ended), and the replicated one.
func (r *Result) SharedPatterns() ([]dist.OwnerPattern, dist.OwnerPattern) { return r.pats, r.repl }
