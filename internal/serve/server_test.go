package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"phpf"
	"phpf/internal/diag"
	"phpf/internal/programs"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("error body is not JSON: %v (%s)", err, body)
	}
	return er.Code
}

func TestServeHappyPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Compile.
	resp, body := postJSON(t, ts.URL+"/v1/compile", `{"figure":"figure1","procs":4}`, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("compile: %d %s", resp.StatusCode, body)
	}
	var cr CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil || cr.Key == "" || cr.Cache != "miss" {
		t.Fatalf("compile response %s (err %v)", body, err)
	}

	// Run on both backends; the second identical request must hit the cache.
	for _, backend := range []string{"sim", "concurrent"} {
		spec := fmt.Sprintf(`{"source":%q,"procs":4,"backend":%q}`, programs.Smooth(16, 1), backend)
		resp, body := postJSON(t, ts.URL+"/v1/run", spec, nil)
		if resp.StatusCode != 200 {
			t.Fatalf("run(%s): %d %s", backend, resp.StatusCode, body)
		}
		var rr RunResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatalf("run(%s) response: %v (%s)", backend, err, body)
		}
		if rr.Backend != backend || len(rr.ArrayCells) == 0 || rr.TimingMS["service"] <= 0 {
			t.Fatalf("run(%s) response incomplete: %s", backend, body)
		}
	}
	spec := fmt.Sprintf(`{"source":%q,"procs":4}`, programs.Smooth(16, 1))
	resp, _ = postJSON(t, ts.URL+"/v1/run", spec, nil)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat run X-Cache = %q, want hit", got)
	}

	// Privatization modes are accepted and keyed separately: a
	// directives-only run of the same program must miss the cache the
	// infer-mode run just filled.
	dirSpec := fmt.Sprintf(`{"source":%q,"procs":4,"privatize":"directives"}`, programs.Smooth(16, 1))
	resp, body = postJSON(t, ts.URL+"/v1/run", dirSpec, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("run(privatize=directives): %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("privatize=directives X-Cache = %q, want miss (mode must be part of the cache key)", got)
	}

	// Diff: both backends agree on the smooth kernel.
	resp, body = postJSON(t, ts.URL+"/v1/diff", spec, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("diff: %d %s", resp.StatusCode, body)
	}
	var dr DiffResponse
	if err := json.Unmarshal(body, &dr); err != nil || !dr.Match {
		t.Fatalf("diff response %s (err %v)", body, err)
	}
}

// TestServeOneEntryPerProgram: the reduce mode is a run option, so one
// program asked for under two modes compiles once. The privatize run hits
// the entry the collective run filled, and only it merges partials.
func TestServeOneEntryPerProgram(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := programs.Histogram(96, 16, 2)
	var stats []string
	for _, mode := range []string{"collective", "privatize"} {
		resp, body := postJSON(t, ts.URL+"/v1/run", fmt.Sprintf(`{"source":%q,"procs":4,"reduce":%q}`, src, mode), nil)
		if resp.StatusCode != 200 {
			t.Fatalf("run(reduce=%s): %d %s", mode, resp.StatusCode, body)
		}
		if want := map[string]string{"collective": "miss", "privatize": "hit"}[mode]; resp.Header.Get("X-Cache") != want {
			t.Errorf("run(reduce=%s): X-Cache = %q, want %s", mode, resp.Header.Get("X-Cache"), want)
		}
		var rr RunResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatalf("run(reduce=%s) response: %v (%s)", mode, err, body)
		}
		stats = append(stats, rr.Stats)
	}
	if strings.Contains(stats[0], "merge=") || !strings.Contains(stats[1], "merge=") {
		t.Errorf("stats collective %q, privatize %q: want merge= on the privatize run alone", stats[0], stats[1])
	}
}

// TestServeBackendDoesNotApply: /v1/compile and /v1/diff take no backend;
// naming one is a coded configuration error.
func TestServeBackendDoesNotApply(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/compile", "/v1/diff"} {
		resp, body := postJSON(t, ts.URL+path, `{"figure":"figure1","procs":4,"backend":"sim"}`, nil)
		if resp.StatusCode != 400 || errCode(t, body) != diag.CodeConfig {
			t.Errorf("%s with a backend: %d %s, want 400 %s", path, resp.StatusCode, body, diag.CodeConfig)
		}
	}
}

// TestServeNaNScalars: figure programs leave NaN in uninitialized cells; the
// response must still be valid JSON (the encode-before-status regression).
func TestServeNaNScalars(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/run", `{"figure":"figure1","procs":4,"return_arrays":true}`, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("run: %d %s", resp.StatusCode, body)
	}
	if len(body) == 0 {
		t.Fatal("empty body: the response failed to encode")
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("response is not valid JSON: %v", err)
	}
	if len(rr.Arrays) == 0 {
		t.Fatal("return_arrays was set but no arrays came back")
	}
}

func TestServeRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxProcs: 8, Chaos: false})
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"broken JSON", `{"figure":"figure1"`, 400, diag.CodeConfig},
		{"unknown field", `{"figure":"figure1","procs":4,"bogus":1}`, 400, diag.CodeConfig},
		{"trailing data", `{"figure":"figure1","procs":4} extra`, 400, diag.CodeConfig},
		{"no program", `{"procs":4}`, 400, diag.CodeConfig},
		{"both program forms", `{"figure":"figure1","source":"x","procs":4}`, 400, diag.CodeConfig},
		{"unknown figure", `{"figure":"nope","procs":4}`, 400, diag.CodeConfig},
		{"zero procs", `{"figure":"figure1","procs":0}`, 400, diag.CodeConfig},
		{"absurd procs", `{"figure":"figure1","procs":4096}`, 400, diag.CodeConfig},
		{"unknown opt", `{"figure":"figure1","procs":4,"opt":"O3"}`, 400, diag.CodeConfig},
		{"unknown privatize", `{"figure":"figure1","procs":4,"privatize":"auto"}`, 400, diag.CodeConfig},
		{"unknown backend", `{"figure":"figure1","procs":4,"backend":"gpu"}`, 400, diag.CodeConfig},
		{"negative timeout", `{"figure":"figure1","procs":4,"timeout_ms":-1}`, 400, diag.CodeConfig},
		{"huge timeout", `{"figure":"figure1","procs":4,"timeout_ms":86400000}`, 400, diag.CodeConfig},
		{"negative budget", `{"figure":"figure1","procs":4,"max_cells":-1}`, 400, diag.CodeConfig},
		{"widened budget", `{"figure":"figure1","procs":4,"max_cells":9007199254740992}`, 400, diag.CodeConfig},
		{"chaos disabled", `{"figure":"figure1","procs":4,"chaos":{"seed":1,"loss_rate":0.1}}`, 400, diag.CodeConfig},
		{"bad chaos rate", `{"figure":"figure1","procs":4,"chaos":{"seed":1,"loss_rate":2.0}}`, 400, diag.CodeConfig},
		{"parse error", `{"source":"this is not a program","procs":4}`, 400, ""},
		{"budget breach", `{"figure":"figure1","procs":4,"max_cells":2}`, 422, diag.CodeBudget},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/run", tc.body, nil)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			if tc.code != "" && errCode(t, body) != tc.code {
				t.Fatalf("code %q, want %q (%s)", errCode(t, body), tc.code, body)
			}
		})
	}
}

func TestServeBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 128})
	big := strings.Repeat("x", 4096)
	resp, _ := postJSON(t, ts.URL+"/v1/run", `{"source":"`+big+`","procs":4}`, nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

// TestServePanicIsolation: a panicking execution produces one coded 500 and
// the server keeps serving subsequent requests.
func TestServePanicIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.execute = func(context.Context, *phpf.Compiled, phpf.Backend, phpf.RunOptions) (*phpf.Report, error) {
		panic("injected execution bug")
	}
	resp, body := postJSON(t, ts.URL+"/v1/run", `{"figure":"figure1","procs":4}`, nil)
	if resp.StatusCode != 500 {
		t.Fatalf("panicking request: %d %s", resp.StatusCode, body)
	}
	if errCode(t, body) != diag.CodePanic {
		t.Fatalf("code %q, want %q (E007)", errCode(t, body), diag.CodePanic)
	}
	if s.Metrics().panics.Load() != 1 {
		t.Fatalf("panics metric = %d, want 1", s.Metrics().panics.Load())
	}

	// The server survives: restore the backend and serve normally.
	s.execute = func(ctx context.Context, c *phpf.Compiled, b phpf.Backend, opts phpf.RunOptions) (*phpf.Report, error) {
		return c.Execute(ctx, b, opts)
	}
	resp, body = postJSON(t, ts.URL+"/v1/run", `{"figure":"figure1","procs":4}`, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("request after panic: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatal("cache should have survived the panic")
	}
}

// blockingServer wires the execute seam to a gate so tests control exactly
// when an in-flight request finishes (or observes cancellation).
func blockingServer(t *testing.T, cfg Config) (*Server, *httptest.Server, chan struct{}, chan struct{}) {
	s, ts := newTestServer(t, cfg)
	started := make(chan struct{}, 64)
	gate := make(chan struct{})
	s.execute = func(ctx context.Context, c *phpf.Compiled, b phpf.Backend, opts phpf.RunOptions) (*phpf.Report, error) {
		started <- struct{}{}
		select {
		case <-gate:
			return c.Execute(ctx, b, opts)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s, ts, started, gate
}

// TestServeSheddingUnderOverload: with one slot and a line of one, the third
// concurrent request is shed with 429 + Retry-After while the first two are
// still being worked.
func TestServeSheddingUnderOverload(t *testing.T) {
	s, ts, started, gate := blockingServer(t, Config{MaxConcurrent: 1, PerTenant: 1, QueueDepth: 1})

	type res struct {
		status int
		retry  string
	}
	results := make(chan res, 3)
	do := func() {
		resp, _ := postJSON(t, ts.URL+"/v1/run", `{"figure":"figure1","procs":4}`, nil)
		results <- res{resp.StatusCode, resp.Header.Get("Retry-After")}
	}

	go do()
	<-started // first request holds the slot inside execute

	go do() // second request waits in the line
	for s.adm.Queued("default") < 2 {
		time.Sleep(time.Millisecond)
	}

	r3resp, r3body := postJSON(t, ts.URL+"/v1/run", `{"figure":"figure1","procs":4}`, nil)
	if r3resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request: %d %s, want 429", r3resp.StatusCode, r3body)
	}
	if r3resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	if s.Sheds() != 1 {
		t.Fatalf("sheds = %d, want 1", s.Sheds())
	}

	close(gate) // let the two admitted requests finish
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != 200 {
			t.Fatalf("admitted request %d finished with %d", i, r.status)
		}
	}
}

// TestServeDrainCompletes: a drain with room to spare lets the in-flight
// request finish with 200 and returns nil.
func TestServeDrainCompletes(t *testing.T) {
	s, ts, started, gate := blockingServer(t, Config{})

	result := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/run", `{"figure":"figure1","procs":4}`, nil)
		result <- resp.StatusCode
	}()
	<-started

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drainErr <- s.Drain(ctx)
	}()

	// While draining: readyz 503, new /v1 work 503, healthz still 200.
	waitDraining(t, s)
	if resp, _ := http.Get(ts.URL + "/readyz"); resp.StatusCode != 503 {
		t.Fatalf("readyz while draining: %d, want 503", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/run", `{"figure":"figure1","procs":4}`, nil); resp.StatusCode != 503 {
		t.Fatalf("new work while draining: %d, want 503", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/healthz"); resp.StatusCode != 200 {
		t.Fatalf("healthz while draining: %d, want 200", resp.StatusCode)
	}

	close(gate)
	if status := <-result; status != 200 {
		t.Fatalf("in-flight request finished with %d, want 200", status)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("drain with completed in-flight work: %v, want nil", err)
	}
}

// TestServeDrainDeadlineCancels: an in-flight request that outlives the
// drain deadline is cancelled (the handler answers; the client is not hung)
// and Drain reports the deadline.
func TestServeDrainDeadlineCancels(t *testing.T) {
	s, ts, started, gate := blockingServer(t, Config{})
	defer close(gate)

	result := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/run", `{"figure":"figure1","procs":4}`, nil)
		result <- resp.StatusCode
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := s.Drain(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain past deadline: %v, want DeadlineExceeded", err)
	}
	select {
	case status := <-result:
		// The cancelled execution surfaces as 503 (drain-cancel), never 200.
		if status != 503 {
			t.Fatalf("deadline-cancelled request answered %d, want 503", status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadline-cancelled request never answered: client hung")
	}
}

// TestServeCancelInflight is the second-SIGTERM path: force-cancel
// immediately, no grace.
func TestServeCancelInflight(t *testing.T) {
	s, ts, started, gate := blockingServer(t, Config{})
	defer close(gate)

	result := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/run", `{"figure":"figure1","procs":4}`, nil)
		result <- resp.StatusCode
	}()
	<-started
	s.CancelInflight()
	select {
	case status := <-result:
		if status != 503 {
			t.Fatalf("force-cancelled request answered %d, want 503", status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("force-cancel did not unblock the request")
	}
}

func waitDraining(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !s.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeChaosRequest: with chaos enabled the request routes through the
// fault layer and still completes deterministically.
func TestServeChaosRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{Chaos: true})
	spec := fmt.Sprintf(`{"source":%q,"procs":4,"backend":"concurrent","chaos":{"seed":11,"loss_rate":0.05,"checkpoint_interval":0.05}}`,
		programs.Smooth(16, 1))
	resp, body := postJSON(t, ts.URL+"/v1/run", spec, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("chaos run: %d %s", resp.StatusCode, body)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
}

// TestServeDeadline: a request whose execution outlives its own timeout_ms
// answers 408, not a hang and not a 5xx.
func TestServeDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.execute = func(ctx context.Context, c *phpf.Compiled, b phpf.Backend, opts phpf.RunOptions) (*phpf.Report, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	resp, body := postJSON(t, ts.URL+"/v1/run", `{"figure":"figure1","procs":4,"timeout_ms":30}`, nil)
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("expired request: %d %s, want 408", resp.StatusCode, body)
	}
}

// TestServeTenantsIndependent: a saturated tenant sheds while another tenant
// sails through.
func TestServeTenantsIndependent(t *testing.T) {
	s, ts, started, gate := blockingServer(t, Config{MaxConcurrent: 8, PerTenant: 1, QueueDepth: 1})

	go func() {
		postJSON(t, ts.URL+"/v1/run", `{"figure":"figure1","procs":4}`, map[string]string{"X-Tenant": "noisy"})
	}()
	<-started
	go func() {
		postJSON(t, ts.URL+"/v1/run", `{"figure":"figure1","procs":4}`, map[string]string{"X-Tenant": "noisy"})
	}()
	for s.adm.Queued("noisy") < 2 {
		time.Sleep(time.Millisecond)
	}

	resp, _ := postJSON(t, ts.URL+"/v1/run", `{"figure":"figure1","procs":4}`, map[string]string{"X-Tenant": "noisy"})
	if resp.StatusCode != 429 {
		t.Fatalf("saturated tenant: %d, want 429", resp.StatusCode)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var quietStatus int
	go func() {
		defer wg.Done()
		resp, _ := postJSON(t, ts.URL+"/v1/run", `{"figure":"figure1","procs":4}`, map[string]string{"X-Tenant": "quiet"})
		quietStatus = resp.StatusCode
	}()
	// The quiet tenant needs its own execute slot; unblock the gate so all
	// blocked executions (noisy + quiet) proceed.
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()
	if quietStatus != 200 {
		t.Fatalf("quiet tenant: %d, want 200", quietStatus)
	}
}

// TestServeMetricsSnapshot: the counters a drain flushes (and healthz
// serves) reflect what actually happened.
func TestServeMetricsSnapshot(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/run", `{"figure":"figure1","procs":4}`, nil)
	postJSON(t, ts.URL+"/v1/run", `{"figure":"figure1","procs":4}`, nil)
	postJSON(t, ts.URL+"/v1/run", `{"figure":"figure1"`, nil) // 400

	snap := s.Snapshot()
	if snap.Run != 3 || snap.Status2xx != 2 || snap.Status4xx != 1 {
		t.Fatalf("snapshot %+v, want run=3 2xx=2 4xx=1", snap)
	}
	if snap.Cache.Hits != 1 || snap.Cache.Misses != 1 {
		t.Fatalf("cache stats %+v, want 1 hit / 1 miss", snap.Cache)
	}
	if snap.ServiceP50Ms <= 0 {
		t.Fatalf("service p50 %v, want > 0", snap.ServiceP50Ms)
	}

	resp, body := postJSON(t, ts.URL+"/v1/run", `{"figure":"figure1","procs":4}`, nil)
	_ = resp
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.TimingMS["queue"] < 0 || rr.TimingMS["exec"] <= 0 {
		t.Fatalf("timing breakdown %v", rr.TimingMS)
	}
}
