// Command phpfload drives a phpfserve instance with sustained concurrent
// mixed-program traffic and reports what the service did under it: p50/p99
// client-observed latency, shed rate, cache-hit rate, and the status-class
// histogram. It is the load half of the serving robustness contract — CI
// boots phpfserve, fires a burst, and asserts zero 5xx for well-formed
// requests plus real shedding under forced overload.
//
// Usage:
//
//	phpfload -addr http://127.0.0.1:8080 -c 32 -duration 5s
//	phpfload -addr http://127.0.0.1:8080 -c 64 -chaos 0.1 -diff 0.05
//	phpfload -addr ... -c 256 -tenants 1 -require-shed   # forced overload
//	phpfload -addr ... -fail-on-5xx -json
//
// The mix crosses the built-in figure programs (plus the smooth kernel)
// with the three optimization strategies, both backends, and the -procs
// list; -chaos routes that fraction of requests through the server's fault
// layer (the server must run with -chaos), and -bad sends that fraction as
// deliberately malformed requests (expected 4xx, never 5xx).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"phpf"
	"phpf/internal/serve"
)

type result struct {
	status  int
	latency time.Duration
	cache   string // X-Cache header: hit|miss|coalesced|"" (non-2xx or error)
	failed  bool   // transport error
	bad     bool   // this was a deliberately malformed request
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "phpfserve base URL")
	concurrency := flag.Int("c", 16, "concurrent client workers")
	duration := flag.Duration("duration", 5*time.Second, "how long to sustain the load")
	procsList := flag.String("procs", "4,16", "comma-separated processor counts to mix")
	backends := flag.String("backends", "sim,concurrent", "comma-separated backends to mix")
	chaosFrac := flag.Float64("chaos", 0, "fraction of requests routed through the fault layer (server needs -chaos)")
	diffFrac := flag.Float64("diff", 0, "fraction of requests sent to /v1/diff instead of /v1/run")
	badFrac := flag.Float64("bad", 0, "fraction of deliberately malformed requests (expect 4xx)")
	tenants := flag.Int("tenants", 4, "number of distinct tenants to spread traffic over")
	timeoutMS := flag.Int64("timeout-ms", 30000, "per-request execution deadline sent in the spec")
	jsonOut := flag.Bool("json", false, "emit the summary as JSON on stdout")
	failOn5xx := flag.Bool("fail-on-5xx", false, "exit nonzero if any request answered 5xx")
	requireShed := flag.Bool("require-shed", false, "exit nonzero unless at least one request was shed with 429")
	flag.Parse()

	for _, f := range []struct {
		name string
		v    float64
	}{{"-chaos", *chaosFrac}, {"-diff", *diffFrac}, {"-bad", *badFrac}} {
		if f.v < 0 || f.v > 1 || math.IsNaN(f.v) {
			fmt.Fprintf(os.Stderr, "phpfload: %s must be in [0,1], got %v\n", f.name, f.v)
			os.Exit(2)
		}
	}

	runs, diffs := buildMix(*procsList, *backends, *timeoutMS, *chaosFrac)
	if len(runs) == 0 {
		fmt.Fprintln(os.Stderr, "phpfload: empty request mix (check -procs/-backends)")
		os.Exit(2)
	}

	client := &http.Client{Timeout: time.Duration(*timeoutMS)*time.Millisecond + 30*time.Second}
	deadline := time.Now().Add(*duration)
	var seq atomic.Int64
	results := make([][]result, *concurrency)
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := seq.Add(1)
				tenant := "load-" + strconv.FormatInt(i%int64(max(1, *tenants)), 10)
				var r result
				switch {
				case *badFrac > 0 && frac(i, *badFrac):
					r = post(client, *addr+"/v1/run", malformedBody(i), tenant)
					r.bad = true
				case *diffFrac > 0 && frac(i+7, *diffFrac):
					r = post(client, *addr+"/v1/diff", diffs[int(i)%len(diffs)], tenant)
				default:
					r = post(client, *addr+"/v1/run", runs[int(i)%len(runs)], tenant)
				}
				results[w] = append(results[w], r)
			}
		}(w)
	}
	wg.Wait()

	sum := summarize(flatten(results), *duration)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(sum)
	} else {
		printSummary(sum)
	}
	if snap := fetchHealthz(client, *addr); snap != "" && !*jsonOut {
		fmt.Printf("server /healthz: %s\n", snap)
	}

	code := 0
	if *failOn5xx && sum.Status5xx > 0 {
		fmt.Fprintf(os.Stderr, "phpfload: FAIL: %d 5xx responses\n", sum.Status5xx)
		code = 1
	}
	if *requireShed && sum.Shed == 0 {
		fmt.Fprintln(os.Stderr, "phpfload: FAIL: overload did not shed a single request")
		code = 1
	}
	if sum.Transport > 0 {
		fmt.Fprintf(os.Stderr, "phpfload: FAIL: %d transport errors\n", sum.Transport)
		code = 1
	}
	os.Exit(code)
}

// frac deterministically selects roughly the given fraction of sequence
// numbers (stateless, so workers need no shared RNG).
func frac(i int64, f float64) bool {
	return float64(i%1000) < f*1000
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// buildMix pre-marshals the request bodies: figures × strategies × procs ×
// backends for /v1/run (every chaosFrac'th carrying a fault spec), and a
// smaller sim-side mix for /v1/diff.
func buildMix(procsList, backends string, timeoutMS int64, chaosFrac float64) (runs, diffs [][]byte) {
	var procs []int
	for _, p := range strings.Split(procsList, ",") {
		if n, err := strconv.Atoi(strings.TrimSpace(p)); err == nil && n > 0 {
			procs = append(procs, n)
		}
	}
	var bks []string
	for _, b := range strings.Split(backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			bks = append(bks, b)
		}
	}
	programs := append(phpf.FigureNames(), "smooth")
	i := 0
	for _, prog := range programs {
		for _, strat := range phpf.Strategies() {
			opt := strat.Name
			for _, p := range procs {
				for _, bk := range bks {
					spec := serve.RunSpec{
						Figure:    prog,
						Procs:     p,
						Opt:       opt,
						Backend:   bk,
						TimeoutMS: timeoutMS,
					}
					i++
					if chaosFrac > 0 && frac(int64(i), chaosFrac) {
						spec.Chaos = &serve.ChaosSpec{
							Seed:               int64(i),
							LossRate:           0.02,
							DupRate:            0.01,
							CheckpointInterval: 0.05,
						}
					}
					body, _ := json.Marshal(spec)
					runs = append(runs, body)
				}
				dspec := serve.RunSpec{Figure: prog, Procs: p, Opt: opt, TimeoutMS: timeoutMS}
				dbody, _ := json.Marshal(dspec)
				diffs = append(diffs, dbody)
			}
		}
	}
	return runs, diffs
}

// malformedBody cycles through representative bad requests: broken JSON,
// unknown fields, a parse-error program, absurd values. All must answer
// 4xx — none may take the server down or 5xx.
func malformedBody(i int64) []byte {
	bad := []string{
		`{"figure": "figure1", "procs": 4`,                        // truncated JSON
		`{"figure": "figure1", "procs": 4, "bogus_field": 1}`,     // unknown field
		`{"source": "this is not a program", "procs": 4}`,         // parse error
		`{"figure": "figure1", "procs": -3}`,                      // absurd procs
		`{"figure": "no-such-figure", "procs": 4}`,                // unknown figure
		`{"figure": "figure1", "procs": 4, "timeout_ms": -5}`,     // negative timeout
		`{"figure": "figure1", "procs": 4, "max_cells": -1}`,      // negative budget
		`{"figure": "figure1", "procs": 4, "backend": "quantum"}`, // unknown backend
		`{"figure": "figure1", "source": "x = 1", "procs": 4}`,    // both program forms
		`{"figure": "figure1", "procs": 1000000}`,                 // beyond MaxProcs
	}
	return []byte(bad[int(i)%len(bad)])
}

func post(client *http.Client, url string, body []byte, tenant string) result {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return result{failed: true}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	start := time.Now()
	resp, err := client.Do(req)
	lat := time.Since(start)
	if err != nil {
		return result{failed: true, latency: lat}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	return result{status: resp.StatusCode, latency: lat, cache: resp.Header.Get("X-Cache")}
}

func fetchHealthz(client *http.Client, addr string) string {
	resp, err := client.Get(addr + "/healthz")
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

func flatten(rr [][]result) []result {
	var out []result
	for _, r := range rr {
		out = append(out, r...)
	}
	return out
}

// Summary is the load run's aggregate, also emitted as -json.
type Summary struct {
	Requests  int     `json:"requests"`
	Seconds   float64 `json:"seconds"`
	Rate      float64 `json:"req_per_s"`
	Status2xx int     `json:"status_2xx"`
	Status4xx int     `json:"status_4xx"` // excluding 429 sheds
	Status5xx int     `json:"status_5xx"`
	Shed      int     `json:"shed"`
	Transport int     `json:"transport_errors"`
	BadSent   int     `json:"malformed_sent"`

	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`

	CacheHit       int     `json:"cache_hit"`
	CacheMiss      int     `json:"cache_miss"`
	CacheCoalesced int     `json:"cache_coalesced"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
	ShedRate       float64 `json:"shed_rate"`
}

func summarize(rs []result, dur time.Duration) Summary {
	s := Summary{Requests: len(rs), Seconds: dur.Seconds()}
	var lats []time.Duration
	var sum time.Duration
	for _, r := range rs {
		if r.failed {
			s.Transport++
			continue
		}
		if r.bad {
			s.BadSent++
		}
		switch {
		case r.status == 429:
			s.Shed++
		case r.status >= 500:
			s.Status5xx++
		case r.status >= 400:
			s.Status4xx++
		default:
			s.Status2xx++
			lats = append(lats, r.latency)
			sum += r.latency
		}
		switch r.cache {
		case "hit":
			s.CacheHit++
		case "miss":
			s.CacheMiss++
		case "coalesced":
			s.CacheCoalesced++
		}
	}
	if s.Seconds > 0 {
		s.Rate = float64(s.Requests) / s.Seconds
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		q := func(p float64) float64 {
			i := int(p * float64(len(lats)-1))
			return float64(lats[i]) / float64(time.Millisecond)
		}
		s.P50Ms, s.P90Ms, s.P99Ms = q(0.50), q(0.90), q(0.99)
		s.MeanMs = float64(sum) / float64(len(lats)) / float64(time.Millisecond)
	}
	if lookups := s.CacheHit + s.CacheMiss + s.CacheCoalesced; lookups > 0 {
		s.CacheHitRate = float64(s.CacheHit+s.CacheCoalesced) / float64(lookups)
	}
	if s.Requests > 0 {
		s.ShedRate = float64(s.Shed) / float64(s.Requests)
	}
	return s
}

func printSummary(s Summary) {
	fmt.Printf("phpfload: %d requests in %.1fs (%.1f req/s)\n", s.Requests, s.Seconds, s.Rate)
	fmt.Printf("status:   2xx=%d 4xx=%d 5xx=%d shed(429)=%d transport-errors=%d malformed-sent=%d\n",
		s.Status2xx, s.Status4xx, s.Status5xx, s.Shed, s.Transport, s.BadSent)
	fmt.Printf("latency:  p50=%.2fms p90=%.2fms p99=%.2fms mean=%.2fms\n", s.P50Ms, s.P90Ms, s.P99Ms, s.MeanMs)
	fmt.Printf("cache:    hit=%d miss=%d coalesced=%d (hit rate %.1f%%)\n",
		s.CacheHit, s.CacheMiss, s.CacheCoalesced, 100*s.CacheHitRate)
	fmt.Printf("shed rate: %.2f%%\n", 100*s.ShedRate)
}
