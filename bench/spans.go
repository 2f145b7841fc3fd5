package main

// The traced run's span recorder. Spans are recorded here, in the
// benchmark's own files, around the calls into each layer; nothing inside
// the program is instrumented. They stay in memory until the run ends, are
// folded into per-layer self times (self = span − children), and are written
// as Chrome trace_event JSON when -spans names a file.

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// noSpan is the parent of a top-level span.
const noSpan = -1

type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int           // index into tracer.spans, or noSpan
	op         int64
	// probe marks a span whose duration was measured by a separate,
	// identical call made just before the op and laid at the start of its
	// parent (the callee cannot be timed from outside while the parent runs
	// it), and a span laid out from the callee's own report (pass.*).
	probe bool
}

// tracer collects spans from the driver goroutines and the wrapped handler.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() time.Duration { return time.Since(t.origin) }

// begin opens a span and returns its index; end closes it.
func (t *tracer) begin(name string, parent int, op int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, op: op, start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].end = now
}

// lay records a probe span of known duration inside parent, starting at
// offset from the parent's start, and returns the offset past it.
func (t *tracer) lay(name string, parent int, offset, dur time.Duration) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	t.spans = append(t.spans, span{name: name, parent: parent, op: p.op,
		start: p.start + offset, end: p.start + offset + dur, probe: true})
	return offset + dur
}

// folded is the per-op view of a trace: for every span name, the total and
// the self time it took in each op, in op order.
type folded struct {
	ops   []int64
	total map[string][]float64 // seconds, indexed like ops
	self  map[string][]float64
}

// fold attributes every span to its op and computes self times. Ops with no
// "op" span (top-level probes) are folded too, under their own op id.
func (t *tracer) fold() *folded {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent != noSpan {
			self[s.parent] -= s.end - s.start
		}
	}
	f := &folded{total: map[string][]float64{}, self: map[string][]float64{}}
	row := map[int64]int{}
	for _, s := range t.spans {
		if _, ok := row[s.op]; !ok {
			row[s.op] = len(f.ops)
			f.ops = append(f.ops, s.op)
		}
	}
	for i, s := range t.spans {
		if f.total[s.name] == nil {
			f.total[s.name] = make([]float64, len(f.ops))
			f.self[s.name] = make([]float64, len(f.ops))
		}
		r := row[s.op]
		f.total[s.name][r] += (s.end - s.start).Seconds()
		f.self[s.name][r] += self[i].Seconds()
	}
	return f
}

// coverage is the share of the op spans' time that the layer spans under
// them account for: what is left is the op's own self time (glue and
// verification in the benchmark).
func (f *folded) coverage() float64 {
	whole := sum(f.total["op"])
	if whole == 0 {
		return 0
	}
	return 1 - sum(f.self["op"])/whole
}

// writeChrome writes the spans as Chrome trace_event JSON (complete events,
// microseconds; one row per op parity so neighbouring ops do not overlap).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.op % 2,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]any{"op": s.op, "span": i, "parent": s.parent, "probe": s.probe},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
