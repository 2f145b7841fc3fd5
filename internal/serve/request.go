// The wire format: a program plus a small declarative run spec (backend,
// strategy, procs — the Mapple-style request surface), decoded strictly and
// validated against the server's limits before any resource is committed.
// Every malformed or absurd field is a fast 400 with a coded diagnostic;
// nothing about a request can make the decoder allocate more than the body
// limit the server already enforced.
package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"time"

	"phpf"
	"phpf/internal/diag"
	"phpf/internal/eval"
)

// RunSpec is the declarative request body shared by /v1/compile, /v1/run,
// and /v1/diff (compile ignores the execution-only fields).
type RunSpec struct {
	// Source is the mini-HPF program text. Exactly one of Source and
	// Figure must be set.
	Source string `json:"source,omitempty"`
	// Figure names a built-in example program ("figure1".."figure7",
	// "smooth") — a tiny request body for cache-friendly traffic.
	Figure string `json:"figure,omitempty"`
	// Procs is the processor count to compile for (1..MaxProcs).
	Procs int `json:"procs"`
	// Opt is the optimization level: "naive", "producer", or "selected"
	// (default).
	Opt string `json:"opt,omitempty"`
	// Privatize selects where privatization facts come from: "directives",
	// "infer" (default), or "infer-strict".
	Privatize string `json:"privatize,omitempty"`
	// Reduce selects the runtime reduction strategy: "auto" (default),
	// "collective", or "privatize". It is part of the cache key.
	Reduce string `json:"reduce,omitempty"`
	// Backend selects the execution backend for /v1/run: "sim" (default)
	// or "concurrent". /v1/diff always runs both.
	Backend string `json:"backend,omitempty"`
	// TimeoutMS bounds the execution wall time (0 = the server default;
	// capped at the server maximum).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxCells tightens the server's per-image cell budget for this
	// request (0 = the server budget; larger values are rejected — a
	// request can only narrow its budget).
	MaxCells int64 `json:"max_cells,omitempty"`
	// ReturnArrays includes full final array contents in the response
	// (default off: responses carry scalars and array cell counts only,
	// so a huge result cannot amplify into a huge response body).
	ReturnArrays bool `json:"return_arrays,omitempty"`
	// Chaos routes the request through the fault-injection layer
	// (rejected unless the server runs with chaos mode enabled).
	Chaos *ChaosSpec `json:"chaos,omitempty"`
}

// ChaosSpec is the opt-in per-request fault plan: the fault layer
// repurposed as self-testing. It names message loss, duplication and
// checkpointing, never a crash, and both backends charge the same modeled
// faults.
type ChaosSpec struct {
	Seed     int64   `json:"seed"`
	LossRate float64 `json:"loss_rate,omitempty"`
	DupRate  float64 `json:"dup_rate,omitempty"`
	// CheckpointInterval enables coordinated checkpointing every so many
	// simulated seconds (0 = off).
	CheckpointInterval float64 `json:"checkpoint_interval,omitempty"`
}

// badRequest builds the coded 400-class diagnostic for an invalid request.
func badRequest(format string, args ...any) error {
	return diag.Errorf("serve", diag.CodeConfig, diag.Pos{}, format, args...)
}

// DecodeRunSpec strictly decodes a request body: unknown fields and
// trailing garbage are errors, so a typo'd field name fails loudly instead
// of being silently ignored. The caller has already bounded len(body).
func DecodeRunSpec(body []byte) (*RunSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var spec RunSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, badRequest("invalid request body: %v", err)
	}
	// A second document (or any non-space trailing bytes) is malformed.
	if dec.More() {
		return nil, badRequest("invalid request body: trailing data after the JSON object")
	}
	return &spec, nil
}

// resolveSource returns the program text the spec names.
func (spec *RunSpec) resolveSource(maxSourceBytes int64) (string, error) {
	switch {
	case spec.Source != "" && spec.Figure != "":
		return "", badRequest("set exactly one of source and figure, not both")
	case spec.Source != "":
		if int64(len(spec.Source)) > maxSourceBytes {
			return "", badRequest("source is %d bytes; the limit is %d", len(spec.Source), maxSourceBytes)
		}
		return spec.Source, nil
	case spec.Figure == "smooth":
		return phpf.SmoothSource(64, 4), nil
	case spec.Figure != "":
		src, ok := phpf.FigureSource(spec.Figure)
		if !ok {
			return "", badRequest("unknown figure %q (want one of %v or smooth)", spec.Figure, phpf.FigureNames())
		}
		return src, nil
	}
	return "", badRequest("empty program: set source or figure")
}

// validated is a fully checked request: the resolved program source, cache
// key, and the execution configuration derived from the spec under the
// server's limits.
type validated struct {
	source  string
	key     string
	procs   int
	opts    phpf.Options
	backend phpf.Backend
	timeout time.Duration
	run     phpf.RunOptions
}

// validate checks the spec against the server's limits and assembles the
// execution configuration. Every rejection is a coded diagnostic; the
// zero/negative/absurd-value checks on RunOptions and machine parameters
// run here, before a single cycle of compile or execute is spent.
func (spec *RunSpec) validate(cfg Config, needBackend bool) (*validated, error) {
	src, err := spec.resolveSource(cfg.MaxSourceBytes)
	if err != nil {
		return nil, err
	}
	if spec.Procs < 1 || spec.Procs > cfg.MaxProcs {
		return nil, badRequest("procs must be in [1,%d], got %d", cfg.MaxProcs, spec.Procs)
	}
	opts, err := phpf.OptionsByName(spec.Opt, spec.Privatize)
	if err != nil {
		return nil, err
	}
	reduce, err := phpf.ParseReduceMode(spec.Reduce)
	if err != nil {
		return nil, err
	}
	v := &validated{
		source: src,
		key:    phpf.CacheKey(src, spec.Procs, opts, reduce),
		procs:  spec.Procs,
		opts:   opts,
	}
	v.run.Reduce = reduce

	// The compile and diff endpoints take no backend: their configuration is
	// held to what the differential oracle, which runs both, accepts.
	target := eval.BackendDiff
	if needBackend {
		name := spec.Backend
		if name == "" {
			name = eval.BackendSim
		}
		b, ok := phpf.BackendByName(name)
		if !ok {
			return nil, badRequest("unknown backend %q (want one of %v)", spec.Backend, phpf.Backends())
		}
		v.backend, target = b, name
	} else if spec.Backend != "" {
		return nil, badRequest("backend does not apply to this endpoint")
	}

	switch {
	case spec.TimeoutMS < 0:
		return nil, badRequest("timeout_ms must be >= 0, got %d", spec.TimeoutMS)
	case spec.TimeoutMS == 0:
		v.timeout = cfg.DefaultTimeout
	default:
		v.timeout = time.Duration(spec.TimeoutMS) * time.Millisecond
		if v.timeout > cfg.MaxTimeout {
			return nil, badRequest("timeout_ms %d exceeds the server maximum %d",
				spec.TimeoutMS, cfg.MaxTimeout.Milliseconds())
		}
	}

	// The request may narrow its cell budget but never widen the server's.
	switch {
	case spec.MaxCells < 0:
		return nil, badRequest("max_cells must be >= 0, got %d", spec.MaxCells)
	case spec.MaxCells == 0:
		v.run.MaxCells = cfg.MaxCells
	case cfg.MaxCells > 0 && spec.MaxCells > cfg.MaxCells:
		return nil, badRequest("max_cells %d exceeds the server budget %d", spec.MaxCells, cfg.MaxCells)
	default:
		v.run.MaxCells = spec.MaxCells
	}

	if spec.Chaos != nil {
		if !cfg.Chaos {
			return nil, badRequest("chaos mode is disabled on this server (start phpfserve with -chaos)")
		}
		plan := &phpf.FaultPlan{
			Seed:     spec.Chaos.Seed,
			LossRate: spec.Chaos.LossRate,
			DupRate:  spec.Chaos.DupRate,
		}
		if err := plan.Validate(); err != nil {
			return nil, badRequest("chaos: %v", err)
		}
		if spec.Chaos.CheckpointInterval < 0 {
			return nil, badRequest("chaos: checkpoint_interval must be >= 0, got %v", spec.Chaos.CheckpointInterval)
		}
		if plan.Active() {
			v.run.Fault = plan
		}
		v.run.CheckpointInterval = spec.Chaos.CheckpointInterval
	}

	// The one validation of a run configuration, over what was assembled
	// (fault plan, interval, budget, reduce mode), before admission.
	if err := v.run.Validate(v.procs, target); err != nil {
		return nil, err
	}
	return v, nil
}

// jsonF64 is a float64 that always JSON-encodes: interpreter results
// legitimately contain NaN (uninitialized cells) and infinities, which
// encoding/json rejects as bare numbers. Non-finite values render as the
// strings "NaN", "+Inf", "-Inf" so a response can never fail to encode.
type jsonF64 float64

func (f jsonF64) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON accepts both encodings so responses round-trip (clients and
// tests can decode what the server produced).
func (f *jsonF64) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"NaN"`:
		*f = jsonF64(math.NaN())
		return nil
	case `"+Inf"`:
		*f = jsonF64(math.Inf(1))
		return nil
	case `"-Inf"`:
		*f = jsonF64(math.Inf(-1))
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = jsonF64(v)
	return nil
}

func jsonScalars(m map[string]float64) map[string]jsonF64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]jsonF64, len(m))
	for k, v := range m {
		out[k] = jsonF64(v)
	}
	return out
}

func jsonArrays(m map[string][]float64) map[string][]jsonF64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string][]jsonF64, len(m))
	for k, vs := range m {
		cells := make([]jsonF64, len(vs))
		for i, v := range vs {
			cells[i] = jsonF64(v)
		}
		out[k] = cells
	}
	return out
}

// ErrorResponse is the JSON error body: a human message plus the stable
// diagnostic code when the failure carries one.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// CompileResponse is the /v1/compile result.
type CompileResponse struct {
	Key   string   `json:"key"`
	Cache string   `json:"cache"`
	Procs int      `json:"procs"`
	Diags []string `json:"diags,omitempty"`
}

// RunResponse is the /v1/run result: the backend-independent report
// flattened for the wire. Arrays are summarized as cell counts unless the
// request asked for contents.
type RunResponse struct {
	Key     string `json:"key"`
	Cache   string `json:"cache"`
	Backend string `json:"backend"`
	// Time is the simulated execution time of the program.
	Time    jsonF64            `json:"time"`
	Stats   string             `json:"stats"`
	Scalars map[string]jsonF64 `json:"scalars,omitempty"`
	// ArrayCells maps each array to its element count; Arrays carries the
	// contents only when return_arrays was set.
	ArrayCells map[string]int64     `json:"array_cells,omitempty"`
	Arrays     map[string][]jsonF64 `json:"arrays,omitempty"`
	Diags      []string             `json:"diags,omitempty"`
	TimingMS   map[string]float64   `json:"timing_ms"`
}

// DiffResponse is the /v1/diff result: both backends under one request,
// with the oracle's verdict.
type DiffResponse struct {
	Key        string             `json:"key"`
	Cache      string             `json:"cache"`
	Match      bool               `json:"match"`
	Mismatches []string           `json:"mismatches,omitempty"`
	Time       jsonF64            `json:"time"`
	Stats      string             `json:"stats"`
	TimingMS   map[string]float64 `json:"timing_ms"`
}
