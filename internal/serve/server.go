// Package serve is the hardened multi-tenant compile-and-execute service
// over the unified phpf.Backend API: the paper's privatization pipeline
// (Gupta, IPPS 1997) behind an HTTP surface that survives hostile traffic.
//
// The admission path of every /v1 request:
//
//	decode (strict, size-bounded) -> validate (coded 400s, budget clamps)
//	-> admit (per-tenant bounded queue; full -> 429 + Retry-After)
//	-> compile via the content-hash LRU cache (singleflight: concurrent
//	   identical requests compile once)
//	-> execute under a context deadline and a MaxCells memory budget
//	-> respond (panics contained per request: a 500, never a dead process)
//
// Endpoints: POST /v1/compile, /v1/run, /v1/diff; GET /healthz (always 200
// while the process lives, with a metrics snapshot body) and /readyz (503
// once draining). SIGTERM handling lives in cmd/phpfserve: Drain stops
// admitting, lets in-flight requests finish or deadline-cancels them, and
// flushes metrics.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"phpf"
	"phpf/internal/diag"
	"phpf/internal/eval"
	"phpf/internal/exec"
)

// Config are the server's hard limits. Zero fields select the defaults —
// every limit has one; an unconfigured server is still a bounded server.
type Config struct {
	// MaxProcs caps the per-request processor count (default 64).
	MaxProcs int
	// MaxSourceBytes caps the program text (default 1 MiB).
	MaxSourceBytes int64
	// MaxBodyBytes caps the request body (default 2*MaxSourceBytes+4096,
	// room for the JSON encoding of a maximal source).
	MaxBodyBytes int64
	// CacheSize is the compiled-program LRU capacity (default 128).
	CacheSize int
	// MaxConcurrent / PerTenant / QueueDepth shape admission control (see
	// NewAdmission).
	MaxConcurrent int
	PerTenant     int
	QueueDepth    int
	// DefaultTimeout / MaxTimeout bound each execution's wall time
	// (defaults 10s / 60s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxCells is the per-memory-image cell budget (default 1<<22 cells =
	// 32 MiB; requests may narrow it, never widen it). See eval.Budget.
	MaxCells int64
	// Chaos permits requests to route through the fault-injection layer.
	Chaos bool
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxProcs <= 0 {
		c.MaxProcs = 64
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 1 << 20
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 2*c.MaxSourceBytes + 4096
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxTimeout < c.DefaultTimeout {
		c.MaxTimeout = c.DefaultTimeout
	}
	if c.MaxCells == 0 {
		c.MaxCells = 1 << 22
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the service: handlers plus the shared cache, admission
// controller, and metrics. Create with New, mount as an http.Handler.
type Server struct {
	cfg   Config
	cache *Cache
	adm   *Admission
	met   *Metrics
	mux   *http.ServeMux

	draining   atomic.Bool
	inflight   sync.WaitGroup
	stopCtx    context.Context
	stopCancel context.CancelFunc

	// execute is the backend call, indirected so tests can substitute a
	// slow or failing execution without a program that really misbehaves.
	execute func(ctx context.Context, c *phpf.Compiled, b phpf.Backend, opts phpf.RunOptions) (*phpf.Report, error)
}

// New builds a Server from the config (zero fields take defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: NewCache(cfg.CacheSize),
		adm:   NewAdmission(cfg.MaxConcurrent, cfg.PerTenant, cfg.QueueDepth),
		met:   NewMetrics(),
		mux:   http.NewServeMux(),
		execute: func(ctx context.Context, c *phpf.Compiled, b phpf.Backend, opts phpf.RunOptions) (*phpf.Report, error) {
			return c.Execute(ctx, b, opts)
		},
	}
	s.stopCtx, s.stopCancel = context.WithCancel(context.Background())
	s.mux.HandleFunc("POST /v1/compile", s.handle(&s.met.reqCompile, false, s.compileTail))
	s.mux.HandleFunc("POST /v1/run", s.handle(&s.met.reqRun, true, s.runTail))
	s.mux.HandleFunc("POST /v1/diff", s.handle(&s.met.reqDiff, false, s.diffTail))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	return s
}

// Metrics returns the server's live metrics (for tests and final flushes).
func (s *Server) Metrics() *Metrics { return s.met }

// Sheds returns the number of load-shed requests so far.
func (s *Server) Sheds() int64 { return s.adm.Sheds() }

// Snapshot renders the current service metrics.
func (s *Server) Snapshot() Snapshot { return s.met.Snapshot(s.cache, s.draining.Load()) }

// ServeHTTP dispatches with per-request panic isolation: a panicking
// handler (a compiler or interpreter bug tickled by one request) produces a
// coded 500 for that request and the server keeps serving. The concurrent
// backend additionally contains worker panics itself (exec.WorkerError).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w}
	defer func() {
		if rec := recover(); rec != nil {
			s.met.panics.Add(1)
			s.cfg.Logf("serve: panic serving %s %s: %v", r.Method, r.URL.Path, rec)
			if !sw.wrote {
				writeJSON(sw, http.StatusInternalServerError, ErrorResponse{
					Error: fmt.Sprintf("internal error: request panicked: %v", rec),
					Code:  diag.CodePanic,
				})
			}
		}
		s.met.Status(sw.status)
	}()
	s.mux.ServeHTTP(sw, r)
}

// statusWriter records the response status for metrics and panic recovery.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.status, w.wrote = http.StatusOK, true
	}
	return w.ResponseWriter.Write(b)
}

// writeJSON marshals BEFORE writing the status line: an unencodable value
// must become a coded 500, not a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		b = []byte(`{"error":"internal error: response failed to encode","code":"` + diag.CodePanic + `"}`)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b = append(b, '\n')
	_, _ = w.Write(b)
}

// ---------------------------------------------------------------------------
// The admission path

// tenantOf extracts the request's tenant (the X-Tenant header; absent means
// the shared "default" tenant).
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// retryAfterSeconds estimates when a shed tenant should come back: its
// queue occupancy times the recent median service time, clamped to [1,30]s.
func (s *Server) retryAfterSeconds(queued int) int {
	p50 := s.met.service.quantile(0.50)
	if p50 <= 0 {
		p50 = 50 * time.Millisecond
	}
	secs := int(math.Ceil((time.Duration(queued+1) * p50).Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// admitted is a request past admission (admit) and, in handle, the validated
// spec and its compilation, for the endpoint's tail.
type admitted struct {
	spec    *RunSpec
	release func()
	queueMS float64
	start   time.Time
	v       *validated
	c       *phpf.Compiled
	outcome CacheOutcome
}

// admit is handle's first step: drain check, bounded body read, strict
// decode, admission. When it reports false the response has already been
// written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (*admitted, bool) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "server is draining"})
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{
				Error: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)})
		} else {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("reading body: %v", err)})
		}
		return nil, false
	}
	spec, err := DecodeRunSpec(body)
	if err != nil {
		s.writeError(w, err)
		return nil, false
	}

	tenant := tenantOf(r)
	queueStart := time.Now()
	release, err := s.adm.Admit(r.Context(), tenant)
	if err != nil {
		var shed *ErrShed
		if errors.As(err, &shed) {
			secs := s.retryAfterSeconds(shed.Queued)
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: shed.Error()})
			return nil, false
		}
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error()})
		return nil, false
	}
	wait := time.Since(queueStart)
	s.met.queue.observe(wait)
	w.Header().Set("X-Queue-Ms", strconv.FormatFloat(ms(wait), 'f', 3, 64))
	return &admitted{spec: spec, release: release, queueMS: ms(wait)}, true
}

// compileCached resolves the spec through the cache (singleflight compile).
func (s *Server) compileCached(v *validated) (*phpf.Compiled, CacheOutcome, error) {
	return s.cache.Get(v.key, func() (*phpf.Compiled, error) {
		return phpf.Compile(v.source, v.procs, v.opts)
	})
}

// execCtx derives the execution context: the request's own context bounded
// by the validated timeout, and cut short when the server deadline-cancels
// in-flight work at the end of a drain.
func (s *Server) execCtx(r *http.Request, v *validated) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(r.Context(), v.timeout)
	stop := context.AfterFunc(s.stopCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// ---------------------------------------------------------------------------
// Handlers

// handle is the front half of the compiling endpoints: it counts the request
// on count, holds it in flight, admits it, validates its spec (run: as a
// /v1/run spec) and compiles it through the cache, which X-Cache reports.
// tail then answers; an error from any step is written as the response.
func (s *Server) handle(count *atomic.Int64, run bool, tail func(http.ResponseWriter, *http.Request, *admitted) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		count.Add(1)
		s.met.inflight.Add(1)
		s.inflight.Add(1)
		defer func() { s.met.inflight.Add(-1); s.inflight.Done() }()
		start := time.Now()

		a, ok := s.admit(w, r)
		if !ok {
			return
		}
		defer a.release()
		a.start = start
		var err error
		if a.v, err = a.spec.validate(s.cfg, run); err == nil {
			a.c, a.outcome, err = s.compileCached(a.v)
		}
		if err == nil {
			w.Header().Set("X-Cache", string(a.outcome))
			err = tail(w, r, a)
		}
		if err != nil {
			s.writeError(w, err)
		}
	}
}

func (s *Server) compileTail(w http.ResponseWriter, _ *http.Request, a *admitted) error {
	s.met.service.observe(time.Since(a.start))
	writeJSON(w, http.StatusOK, CompileResponse{
		Key:   a.v.key,
		Cache: string(a.outcome),
		Procs: a.v.procs,
		Diags: diagStrings(a.c),
	})
	return nil
}

func (s *Server) runTail(w http.ResponseWriter, r *http.Request, a *admitted) error {
	ctx, cancel := s.execCtx(r, a.v)
	defer cancel()
	execStart := time.Now()
	rep, err := s.execute(ctx, a.c, a.v.backend, a.v.run)
	if err != nil {
		return err
	}
	s.met.service.observe(time.Since(a.start))

	resp := RunResponse{
		Key:        a.v.key,
		Cache:      string(a.outcome),
		Backend:    rep.Backend,
		Time:       jsonF64(rep.Time),
		Stats:      rep.Stats.String(),
		Scalars:    jsonScalars(rep.Scalars),
		ArrayCells: map[string]int64{},
		Diags:      diagStrings(a.c),
		TimingMS: map[string]float64{
			"queue":   a.queueMS,
			"exec":    ms(time.Since(execStart)),
			"service": ms(time.Since(a.start)),
		},
	}
	for name, cells := range rep.Arrays {
		resp.ArrayCells[name] = int64(len(cells))
	}
	if a.spec.ReturnArrays {
		resp.Arrays = jsonArrays(rep.Arrays)
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

func (s *Server) diffTail(w http.ResponseWriter, r *http.Request, a *admitted) error {
	ctx, cancel := s.execCtx(r, a.v)
	defer cancel()
	rep, err := a.c.Diff(ctx, a.v.run)
	if err != nil {
		return err
	}
	s.met.service.observe(time.Since(a.start))
	writeJSON(w, http.StatusOK, DiffResponse{
		Key:        a.v.key,
		Cache:      string(a.outcome),
		Match:      rep.Match(),
		Mismatches: rep.Mismatches,
		Time:       jsonF64(rep.Sim.Time),
		Stats:      rep.Sim.Stats.String(),
		TimingMS: map[string]float64{
			"queue":   a.queueMS,
			"service": ms(time.Since(a.start)),
		},
	})
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness: 200 while the process can serve anything at all, with the
	// metrics snapshot as the body (the flushed-on-drain view, live).
	writeJSON(w, http.StatusOK, s.Snapshot())
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// diagStrings renders a compilation's warnings and infos for the wire.
func diagStrings(c *phpf.Compiled) []string {
	var out []string
	for _, d := range c.Diags() {
		if d.Severity >= phpf.SeverityWarning {
			out = append(out, d.String())
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Error mapping

// writeError maps an error from the compile/validate/execute path to a
// status code and coded JSON body. The contract: client mistakes (bad
// requests, bad programs, budget breaches, expired budgets) are 4xx;
// only genuine service failures (contained panics, backend protocol
// violations) are 5xx.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status, code := errorStatus(err)
	if status >= 500 {
		s.cfg.Logf("serve: internal error: %v", err)
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error(), Code: code})
}

func errorStatus(err error) (int, string) {
	var d *diag.Diagnostic
	if errors.As(err, &d) {
		switch d.Code {
		case diag.CodeBudget:
			// The request asked for more memory than its budget allows.
			return http.StatusUnprocessableEntity, d.Code
		case diag.CodePanic, diag.CodeVerify:
			return http.StatusInternalServerError, d.Code
		default:
			// Lex/parse/build/config: the request itself is wrong.
			return http.StatusBadRequest, d.Code
		}
	}
	var we *exec.WorkerError
	if errors.As(err, &we) {
		// A contained worker panic: isolated to this request.
		return http.StatusInternalServerError, diag.CodePanic
	}
	var pe *exec.ProtocolError
	var de *exec.DivergenceError
	var se *exec.StallError
	if errors.As(err, &pe) || errors.As(err, &de) || errors.As(err, &se) {
		return http.StatusInternalServerError, ""
	}
	if errors.Is(err, context.DeadlineExceeded) {
		// The request's own execution budget expired.
		return http.StatusRequestTimeout, ""
	}
	if errors.Is(err, context.Canceled) {
		// Deadline-cancelled by a drain (or the client went away).
		return http.StatusServiceUnavailable, ""
	}
	var ne *eval.NumericError
	if errors.As(err, &ne) {
		return http.StatusUnprocessableEntity, ""
	}
	// Everything else the backends return is a program-semantics failure
	// (out-of-bounds subscript, zero step, escaped goto): the program is
	// well-formed JSON-wise but cannot execute — the client's fault.
	return http.StatusUnprocessableEntity, ""
}

// ---------------------------------------------------------------------------
// Drain

// Drain performs the graceful half of shutdown: stop admitting (readyz
// flips to 503, /v1 requests get an immediate 503), then wait for in-flight
// requests. If ctx expires first, every in-flight execution is
// deadline-cancelled (they unwind through their backends' cancellation
// paths and answer 503) and Drain still waits for the handlers to finish
// writing before returning ctx's error.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.stopCancel()
		<-done
		return ctx.Err()
	}
}

// CancelInflight force-cancels every in-flight execution immediately (the
// second-SIGTERM path). Safe to call at any time, once or many times.
func (s *Server) CancelInflight() { s.stopCancel() }
