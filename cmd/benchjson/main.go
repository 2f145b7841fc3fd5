// Command benchjson turns `go test -bench` output into the repo's
// BENCH_<n>.json trajectory format and gates regressions against a committed
// baseline.
//
//	go test -run '^$' -bench ... -benchmem . | benchjson emit -o BENCH_1.json
//	benchjson compare BENCH_0.json BENCH_1.json
//
// emit parses the benchmark lines on stdin; with -count > 1 every benchmark
// appears several times and the minimum ns/op (the least-noisy estimate of
// the true cost) is kept, along with bytes/op and allocs/op when -benchmem
// was on and any custom metrics (sim-sec/run, stmt-instances/s).
//
// compare exits nonzero when a deterministic column of a benchmark present
// in both files moved: sim-sec/run (simulated time: any change means the cost
// model or the schedule changed) must be identical, and allocs/op may not
// exceed the baseline by more than 1% (the serve benchmarks are concurrent
// and wobble by a few allocations). ns/op is printed and not gated: an
// unpaired timing against a baseline from another day on a shared machine
// says nothing — timing claims are made with paired runs of bench/.
// Benchmarks present in only one file are reported but do not fail the gate,
// so adding or retiring a benchmark does not require regenerating history.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Bench is one benchmark's aggregated result.
type Bench struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	Samples     int                `json:"samples"`
}

// File is one BENCH_<n>.json: a schema tag, the toolchain, and the
// per-benchmark results (keys sorted by encoding/json for stable diffs).
type File struct {
	Schema     int              `json:"schema"`
	Go         string           `json:"go"`
	Benchmarks map[string]Bench `json:"benchmarks"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "emit":
		emit(os.Args[2:])
	case "compare":
		compare(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: benchjson emit [-o file] < bench-output")
	fmt.Fprintln(os.Stderr, "       benchjson compare baseline.json new.json")
	os.Exit(2)
}

// benchLine matches one `go test -bench` result line: the name (with the
// trailing -GOMAXPROCS), the iteration count, and the metric pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

func emit(args []string) {
	fs := flag.NewFlagSet("emit", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)

	f := File{Schema: 1, Go: runtime.Version(), Benchmarks: map[string]Bench{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		// Strip the -GOMAXPROCS suffix go test appends to the name.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		b, seen := f.Benchmarks[name]
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			unit := fields[i+1]
			switch unit {
			case "ns/op":
				if !seen || val < b.NsPerOp {
					b.NsPerOp = val
				}
			case "B/op":
				if !seen || val < b.BytesPerOp {
					b.BytesPerOp = val
				}
			case "allocs/op":
				if !seen || val < b.AllocsPerOp {
					b.AllocsPerOp = val
				}
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = val
			}
		}
		b.Samples++
		f.Benchmarks[name] = b
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if len(f.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines on stdin"))
	}
	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("benchjson: wrote %s (%d benchmarks)\n", *out, len(f.Benchmarks))
}

// allocSlack is how far allocs/op may exceed the baseline.
const allocSlack = 0.01

func compare(args []string) {
	if len(args) != 2 {
		usage()
	}
	oldF, newF := load(args[0]), load(args[1])

	var names []string
	for name := range oldF.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := 0
	compared := 0
	for _, name := range names {
		ob := oldF.Benchmarks[name]
		nb, ok := newF.Benchmarks[name]
		if !ok {
			fmt.Printf("  %-44s  only in baseline (skipped)\n", name)
			continue
		}
		compared++
		var moved []string
		if want, ok := ob.Metrics["sim-sec/run"]; ok {
			if got, ok := nb.Metrics["sim-sec/run"]; !ok || got != want {
				moved = append(moved, fmt.Sprintf("sim-sec/run %v -> %v", want, got))
			}
		}
		if nb.AllocsPerOp > ob.AllocsPerOp*(1+allocSlack) {
			moved = append(moved, fmt.Sprintf("allocs/op %.0f -> %.0f", ob.AllocsPerOp, nb.AllocsPerOp))
		}
		mark := "ok"
		if len(moved) > 0 {
			mark = "MOVED: " + strings.Join(moved, ", ")
			failed++
		}
		fmt.Printf("  %-44s  %12.0f -> %12.0f ns/op (%+6.1f%%, not gated)  %8.0f allocs/op  %s\n",
			name, ob.NsPerOp, nb.NsPerOp, (nb.NsPerOp/ob.NsPerOp-1)*100, nb.AllocsPerOp, mark)
	}
	for name := range newF.Benchmarks {
		if _, ok := oldF.Benchmarks[name]; !ok {
			fmt.Printf("  %-44s  new benchmark (no baseline)\n", name)
		}
	}
	if compared == 0 {
		fatal(fmt.Errorf("no benchmarks in common between %s and %s", args[0], args[1]))
	}
	if failed > 0 {
		fatal(fmt.Errorf("%d benchmark(s) moved in sim-sec/run or allocs/op vs %s", failed, args[0]))
	}
	fmt.Printf("benchjson: %d benchmarks match %s in sim-sec/run and allocs/op\n", compared, args[0])
}

func load(path string) File {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		fatal(fmt.Errorf("%s: %v", path, err))
	}
	if len(f.Benchmarks) == 0 {
		fatal(fmt.Errorf("%s: no benchmarks", path))
	}
	return f
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
