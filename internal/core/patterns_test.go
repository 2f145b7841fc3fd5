package core_test

import (
	"context"
	"reflect"
	"testing"

	"phpf"
	"phpf/internal/core"
	"phpf/internal/dist"
	"phpf/internal/parser"
	"phpf/internal/programs"
	"phpf/internal/spmd"
)

// TestRefPatternsUnaliased: the owner patterns a Result shares are read, never
// written. The array references' cache is taken when the selector is done
// and checked after the rest of the compilation — the planner and the
// generator, which fill it further and must then drop it from the Result;
// the replicated pattern, which the Result keeps, is checked after a
// simulated run of each figure too, whose lowering reads owner patterns.
// Every array pattern asked for must equal a fresh dist.PatternOf, and the
// replicated pattern must still be replicated in every dimension and nothing
// else.
func TestRefPatternsUnaliased(t *testing.T) {
	srcs := map[string]string{
		"tomcatv": programs.TOMCATV(65, 3), "dgefa": programs.DGEFA(96),
		"appsp_1d": programs.APPSP(12, 12, 12, 2, false), "appsp_2d": programs.APPSP(12, 12, 12, 2, true),
		"smooth": programs.Smooth(64, 4), "histogram": programs.Histogram(256, 32, 4), "dotsweep": programs.DotSweep(48, 24),
	}
	figures := map[string]bool{}
	for _, name := range phpf.FigureNames() {
		srcs[name], _ = phpf.FigureSource(name)
		figures[name] = true
	}
	for name, src := range srcs {
		ap, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, opts := range []phpf.Options{phpf.NaiveOptions(), phpf.ProducerOptions(), phpf.SelectedOptions()} {
			for _, mode := range []phpf.PrivMode{phpf.PrivDirectives, phpf.PrivInfer} {
				opts.Privatization = mode
				res, err := core.BuildAndAnalyze(ap, 16, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				pats, repl := res.SharedPatterns()
				c := &phpf.Compiled{Source: src, NProcs: 16, Opts: opts, Result: res, SPMD: spmd.Generate(res)}
				if kept, _ := res.SharedPatterns(); kept != nil {
					t.Errorf("%s/%s/%s: the compiled Result still holds %d reference patterns", name, opts.Scalars, mode, len(kept))
				}
				if figures[name] {
					// The lowering is the point, not the run's outcome (figure4
					// subscripts b with a value of a, which is 0).
					c.Execute(context.Background(), phpf.Simulator(), phpf.RunOptions{})
				}
				if !reflect.DeepEqual(repl, dist.ReplicatedPattern(res.Mapping.Grid)) {
					t.Errorf("%s/%s/%s: the shared replicated pattern became %v", name, opts.Scalars, mode, repl)
				}
				for _, ref := range res.Prog.Refs {
					if am := res.Mapping.Arrays[ref.Var]; am != nil && pats[ref.ID].Dims != nil {
						if fresh := dist.PatternOf(res.Mapping.Grid, am, ref); !reflect.DeepEqual(pats[ref.ID], fresh) {
							t.Errorf("%s/%s/%s: %s's cached pattern became %v, PatternOf gives %v",
								name, opts.Scalars, mode, ref, pats[ref.ID], fresh)
						}
					}
				}
			}
		}
	}
}
