package main

// Output verification. Three independent witnesses:
//
//   - sequential references written in Go (internal/programs' *Ref functions
//     and the two small ones here), compared with the tolerance the
//     internal/programs tests use;
//   - expected.json, which pins the simulated time, messages and bytes of
//     every executed input (and the IR sizes of every compiled one) at full
//     float64 precision — a moved simulated number means the model changed;
//   - the set-up's reference pass, against which every measured op is
//     compared bit for bit (and through which the two backends are compared
//     with each other).

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"phpf"
	"phpf/internal/programs"
)

// outcome is what one input's execution (or compilation) must reproduce
// exactly. Executed inputs fill the simulated-clock fields, compiled-only
// inputs the IR sizes.
type outcome struct {
	SimS  float64 `json:"sim_s,omitempty"`
	Msgs  int64   `json:"sim_msgs,omitempty"`
	Bytes int64   `json:"sim_bytes,omitempty"`

	StmtPlans    int `json:"stmt_plans,omitempty"`
	Requirements int `json:"requirements,omitempty"`
	Diags        int `json:"diags,omitempty"`
}

func (o outcome) plus(p outcome) outcome {
	return outcome{
		SimS: o.SimS + p.SimS, Msgs: o.Msgs + p.Msgs, Bytes: o.Bytes + p.Bytes,
		StmtPlans: o.StmtPlans + p.StmtPlans, Requirements: o.Requirements + p.Requirements,
		Diags: o.Diags + p.Diags,
	}
}

func compiledOutcome(c *phpf.Compiled) outcome {
	return outcome{StmtPlans: len(c.SPMD.Stmts), Requirements: len(c.SPMD.Plan.Reqs), Diags: len(c.Diags())}
}

func reportOutcome(rep *phpf.Report) outcome {
	return outcome{SimS: rep.Time, Msgs: rep.Stats.Messages, Bytes: rep.Stats.BytesMoved}
}

// pins maps workload -> pin key -> the summed outcome of the inputs
// sharing that key.
type pins map[string]map[string]outcome

//go:embed expected.json
var expectedJSON []byte

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(expectedJSON, &p); err != nil {
		return nil, fmt.Errorf("bench/expected.json: %w", err)
	}
	return p, nil
}

// expectedPath is where -update-expected rewrites the pins, relative to the
// repository root the command runs from.
const expectedPath = "bench/expected.json"

func writePins(p pins) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding pins: %w", err)
	}
	return os.WriteFile(expectedPath, append(data, '\n'), 0o644)
}

// sumPins folds per-input outcomes by pin key, in input order.
func sumPins(inputs []input, outs []outcome) map[string]outcome {
	m := map[string]outcome{}
	for i, in := range inputs {
		m[in.pin] = m[in.pin].plus(outs[i])
	}
	return m
}

// checkPins compares the reference pass with expected.json.
func checkPins(workload string, got, want map[string]outcome) error {
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w, ok := want[k]
		if !ok {
			return fmt.Errorf("expected.json has no pin %s/%s (run with -update-expected)", workload, k)
		}
		if got[k] != w {
			return fmt.Errorf("pin %s/%s: got %+v, expected.json has %+v: a simulated or IR quantity moved "+
				"(if the model change is intended, run with -update-expected and say so)", workload, k, got[k], w)
		}
	}
	return nil
}

// sameMemory reports the first bitwise difference between two final memory
// images (NaN cells of uninitialized data compare equal to themselves).
func sameMemory(got, want *phpf.Report) error {
	if len(got.Scalars) != len(want.Scalars) || len(got.Arrays) != len(want.Arrays) {
		return fmt.Errorf("memory image has %d scalars and %d arrays, reference has %d and %d",
			len(got.Scalars), len(got.Arrays), len(want.Scalars), len(want.Arrays))
	}
	for name, w := range want.Scalars {
		if g, ok := got.Scalars[name]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("scalar %s = %v, reference has %v", name, g, w)
		}
	}
	for name, w := range want.Arrays {
		g := got.Arrays[name]
		if len(g) != len(w) {
			return fmt.Errorf("array %s has %d cells, reference has %d", name, len(g), len(w))
		}
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				return fmt.Errorf("%s[%d] = %v, reference has %v", name, i, g[i], w[i])
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Sequential references

// within is the comparison internal/programs' tests use:
// |got-want| <= tol*(1+|want|).
func within(name string, got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d cells, sequential reference has %d", name, len(got), len(want))
	}
	for i := range got {
		if !(math.Abs(got[i]-want[i]) <= tol*(1+math.Abs(want[i]))) {
			return fmt.Errorf("%s[%d] = %v, sequential reference has %v", name, i, got[i], want[i])
		}
	}
	return nil
}

func checkTOMCATV(rep *phpf.Report) error {
	x, y, rxm, rym := programs.TOMCATVRef(tomcatvN, tomcatvIters)
	if err := within("x", rep.Arrays["x"], x, 1e-9); err != nil {
		return err
	}
	if err := within("y", rep.Arrays["y"], y, 1e-9); err != nil {
		return err
	}
	return within("rxm,rym", []float64{rep.Scalars["rxm"], rep.Scalars["rym"]}, []float64{rxm, rym}, 1e-9)
}

func checkDGEFA(n int) func(*phpf.Report) error {
	return func(rep *phpf.Report) error {
		return within("a", rep.Arrays["a"], programs.DGEFARef(n), 1e-9)
	}
}

func checkAPPSP(rep *phpf.Report) error {
	return within("v", rep.Arrays["v"], programs.APPSPRef(appspN, appspN, appspN, appspIters), 1e-9)
}

func checkHistogram(rep *phpf.Report) error {
	return within("h", rep.Arrays["h"], programs.HistogramRef(histN, histM, histIter), 0)
}

func checkDotSweep(rep *phpf.Report) error {
	return within("r", rep.Arrays["r"], programs.DotSweepRef(dotN, dotM), 1e-12)
}

// checkTP runs tpSource's two loops sequentially.
func checkTP(rep *phpf.Report) error {
	const n, iters = 1000, 50
	a, bb := make([]float64, n), make([]float64, n)
	for it := 0; it < iters; it++ {
		for i := range a {
			a[i] = bb[i]*0.5 + 1.0
		}
		copy(bb, a)
	}
	if err := within("a", rep.Arrays["a"], a, 1e-12); err != nil {
		return err
	}
	return within("bb", rep.Arrays["bb"], bb, 1e-12)
}

// checkSmooth runs programs.Smooth's three-point relaxation sequentially.
func checkSmooth(n, niter int) func(*phpf.Report) error {
	return func(rep *phpf.Report) error {
		u, v := make([]float64, n), make([]float64, n)
		for i := range u {
			u[i] = float64(i+1) * 0.001
		}
		for it := 0; it < niter; it++ {
			for i := 1; i < n-1; i++ {
				v[i] = 0.25*u[i-1] + 0.5*u[i] + 0.25*u[i+1]
			}
			copy(u[1:n-1], v[1:n-1])
		}
		if err := within("u", rep.Arrays["u"], u, 1e-12); err != nil {
			return err
		}
		return within("v", rep.Arrays["v"], v, 1e-12)
	}
}
