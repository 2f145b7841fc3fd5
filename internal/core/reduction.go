package core

import (
	"phpf/internal/dataflow"
	"phpf/internal/dist"
)

// mapReduction applies the §2.3 mapping to a recognized reduction: the
// accumulator is replicated across the grid dimensions over which the
// reduction combines (those traversed by the data reference during the
// carried loops), and — when the definition is privatizable with respect to
// the loop immediately surrounding the outermost reduction loop — aligned
// with the data reference in the remaining grid dimensions.
//
// During execution the update statement runs on the owners of the data
// reference (each processor accumulates a private partial), and a global
// combine across the reduction dimensions runs when the outermost carried
// loop completes.
func (a *analyzer) mapReduction(red *dataflow.Reduction) {
	def := a.ssa.DefOf[red.Stmt]
	if def == nil || a.res.Scalars[def] != nil {
		return
	}

	g := a.m.Grid
	pattern := dist.ReplicatedPattern(g)
	var redDims []int

	if red.DataRef != nil {
		dataPat := a.res.RefPattern(red.DataRef)
		outer := red.Loops[len(red.Loops)-1]

		// Reduction grid dimensions: where the data's owner varies across
		// the carried loops.
		isRedDim := make([]bool, g.Rank())
		for d := 0; d < g.Rank(); d++ {
			if dataPat.Dims[d].Repl {
				continue
			}
			for _, l := range red.Loops {
				if dataPat.VariesIn(d, l) {
					isRedDim[d] = true
				}
			}
		}
		for d, r := range isRedDim {
			if r {
				redDims = append(redDims, d)
			}
		}

		// Non-reduction dims: align with the data reference when the value
		// is privatizable with respect to the surrounding loop.
		alignRest := outer.Parent != nil && a.privatizableWrt(def, outer.Parent)
		if alignRest {
			for d := 0; d < g.Rank(); d++ {
				if !isRedDim[d] && !dataPat.Dims[d].Repl {
					pattern.Dims[d] = dataPat.Dims[d]
				}
			}
		}
	}

	m := &ScalarMapping{
		Def:         def,
		Kind:        ScalarReduction,
		Target:      red.DataRef,
		Red:         red,
		RedGridDims: redDims,
		PrivLoop:    red.Loops[len(red.Loops)-1],
		Pattern:     pattern,
	}
	a.record(def, m)
	// Propagate to the other reaching definitions of the accumulator's
	// uses (typically the initialization before the loop), so that the
	// initialization executes on the same processor set.
	a.propagateToSiblings(def, m)
}
