package machine_test

import (
	"slices"
	"testing"

	"phpf/internal/core"
	"phpf/internal/machine"
	"phpf/internal/parser"
	"phpf/internal/programs"
	"phpf/internal/sim"
	"phpf/internal/spmd"
)

// leapCensus counts a run's strips of more than two rounds that carry a
// transfer, and their rounds: all of them, and those leapt.
type leapCensus struct{ Strips, Rounds, Leapt, LeaptRounds int64 }

// TestLeapCensus pins how many transfer strips of the two sim_cells cells
// that have them, at the benchmark's sizes, ComputeStrip leaps: a change that
// quietly makes them round by round fails here, not only on a host clock.
// With strips of 32 rounds, recording every clock after every round showed
// each of the leapt strips steady (each clock adds the same D in every round
// from round 2 on), and 10 of tomcatv_replication's strips and 9 of
// appsp_1d_nopriv's not; the one steady strip left was appsp_1d_nopriv's whose
// multicast's done passes 2^-6 in round 2 while its sender stays below: the
// leap declines it, though its rounds happen to repeat (EXPERIMENTS.md,
// "leaping a transfer strip"). A strip is now its whole run (up to 128
// rounds): tomcatv_replication's 11,718 rounds are half as many strips, and 10
// of them still decline; appsp_1d_nopriv's runs were one strip each already.
func TestLeapCensus(t *testing.T) {
	naive := core.DefaultOptions()
	naive.Scalars = core.ScalarsReplicated
	naive.AlignReductions = false
	noPriv := core.DefaultOptions()
	noPriv.PrivatizeArrays = false
	for _, c := range []struct {
		name, src string
		opts      core.Options
		want      leapCensus
	}{
		{"tomcatv_replication", programs.TOMCATV(65, 3), naive, leapCensus{189, 11718, 179, 11098}},
		{"appsp_1d_nopriv", programs.APPSP(12, 12, 12, 2, false), noPriv, leapCensus{180, 1800, 170, 1700}},
	} {
		ap, err := parser.Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.BuildAndAnalyze(ap, 16, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		var got leapCensus
		restore := machine.OnStrip(func(charges []machine.Listed, n int64, leapt bool) {
			if n <= 2 || !slices.ContainsFunc(charges, func(c machine.Listed) bool { return c.From >= 0 }) {
				return
			}
			got.Strips++
			got.Rounds += n
			if leapt {
				got.Leapt++
				got.LeaptRounds += n
			}
		})
		_, err = sim.Run(spmd.Generate(res), sim.Config{})
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s: %+v, want %+v", c.name, got, c.want)
		}
	}
}
