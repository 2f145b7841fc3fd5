package main

// -compare: the rule by which two sets of runs are said to agree, or a
// change is said to have made a metric worse. Each file holds the runs
// appended by -out; per (workload, metric) a side's value is the median of
// its runs and its spread the distance between its extreme runs.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkPath is the benchmark's declaration, relative to the repository
// root the command runs from.
const benchmarkPath = "BENCHMARK.json"

// declaration is the part of BENCHMARK.json this program reads.
type declaration struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	RunSeconds int `json:"run_seconds"`
}

func readDeclaration(path string) (*declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// side is one file's runs of one (workload, metric).
type side []float64

func (s side) spread() float64 {
	if len(s) < 2 || median(s) == 0 {
		return 0
	}
	return (quantile(s, 1) - quantile(s, 0)) / median(s)
}

// collect gathers a metric's values over a file's runs of one workload.
func collect(f runFile, workload string, traced bool, metric string) side {
	var s side
	for _, r := range f.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == traced {
			s = append(s, v.Value)
		}
	}
	return s
}

// verdict compares B with A for a metric whose worsening is bounded: the
// change is the relative move of the median in the metric's bad direction.
// A move beyond the bound is "worse" (or "better"), unless either side's own
// runs spread wider than the bound and the two sides' runs overlap — then
// the runs cannot resolve it.
func verdict(a, b side, better string, bound float64) (ratio float64, v string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		if mb == 0 {
			return 1, "same"
		}
		return 0, "unresolved"
	}
	ratio = mb / ma
	worsening := ratio - 1
	if better == "higher" {
		worsening = 1 - ratio
	}
	switch {
	case worsening > bound:
		v = "worse"
	case -worsening > bound:
		v = "better"
	default:
		return ratio, "same"
	}
	if a.spread() > bound || b.spread() > bound {
		overlap := quantile(a, 0) <= quantile(b, 1) && quantile(b, 0) <= quantile(a, 1)
		if overlap {
			v = "unresolved"
		}
	}
	return ratio, v
}

// compareFiles prints one row per (workload, end-to-end metric), then one
// per exact per-layer metric that differs, and reports whether any row is
// "worse". A failed op on side B is worse than none on side A.
func compareFiles(pathA, pathB string, w io.Writer) (worse bool, err error) {
	decl, err := readDeclaration(benchmarkPath)
	if err != nil {
		return false, err
	}
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-16s %-28s %14s %14s %8s %6s  %s\n", "workload", "metric", "A (base)", "B", "B/A", "bound", "verdict")
	row := func(workload, metric string, va, vb, ratio, bound float64, v string) {
		fmt.Fprintf(w, "%-16s %-28s %14.6g %14.6g %8.4f %6.2f  %s\n", workload, metric, va, vb, ratio, bound, v)
		worse = worse || v == "worse"
	}
	for _, wl := range workloads {
		for _, m := range decl.EndToEnd {
			sa, sb := collect(a, wl.name, false, m.Name), collect(b, wl.name, false, m.Name)
			if len(sa) == 0 || len(sb) == 0 {
				continue
			}
			ratio, v := verdict(sa, sb, m.Better, m.Bound)
			row(wl.name, m.Name, median(sa), median(sb), ratio, m.Bound, v)
		}
		fa, fb := failRatio(a, wl.name), failRatio(b, wl.name)
		if fa >= 0 && fb >= 0 {
			v := "same"
			if fb > fa {
				v = "worse"
			} else if fb < fa {
				v = "better"
			}
			row(wl.name, "fail_ratio", fa, fb, 1, 0, v)
		}
		for _, m := range perLayerDefs {
			if !m.Exact {
				continue
			}
			sa, sb := collect(a, wl.name, true, m.Name), collect(b, wl.name, true, m.Name)
			if len(sa) == 0 || len(sb) == 0 {
				continue
			}
			all := append(append(side{}, sa...), sb...)
			sort.Float64s(all)
			if all[0] != all[len(all)-1] {
				// An exact quantity has no better direction: any move is
				// a changed model or changed work, to be declared.
				row(wl.name, m.Name, median(sa), median(sb), median(sb)/median(sa), 0, "worse")
			}
		}
	}
	return worse, nil
}

// failRatio is failed/attempted over a file's runs of a workload, -1 when it
// has none.
func failRatio(f runFile, workload string) float64 {
	var failed, attempted int64
	for _, r := range f.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	if attempted == 0 {
		return -1
	}
	return float64(failed) / float64(attempted)
}
