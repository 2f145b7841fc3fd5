// Chrome trace_event exporter: renders the stored events in the JSON Array
// Format understood by chrome://tracing and Perfetto (ui.perfetto.dev).
// Each simulated processor becomes one thread lane; instantaneous events
// (sends, faults) render as instant markers, events with a duration
// (compute, waits, restarts) as complete slices.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"phpf/internal/dist"
)

// chromeEvent is one trace_event record. Field order is fixed, so the
// marshaled output is deterministic for a deterministic event stream.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`            // microseconds
	Dur   *float64       `json:"dur,omitempty"` // microseconds, "X" only
	Scope string         `json:"s,omitempty"`   // instant scope, "i" only
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromeName labels one event for the trace viewer.
func (r *Recorder) chromeName(e Event) string {
	base := e.Kind.String()
	if e.Kind == Send || e.Kind == Recv {
		base = fmt.Sprintf("%s %s", e.Kind, e.Class)
	}
	if e.Stmt >= 0 {
		if l := r.Label(e.Stmt); l != "" {
			return base + " " + l
		}
		return fmt.Sprintf("%s s%d", base, e.Stmt)
	}
	return base
}

// WriteChromeTrace writes the stored events as Chrome trace_event JSON.
// Load the file in chrome://tracing or Perfetto; processors appear as
// threads of one process, ordered by ID.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`+"\n")
		return err
	}
	events := r.Events()
	out := chromeFile{TraceEvents: make([]chromeEvent, 0, len(events)), DisplayTimeUnit: "ms"}
	for _, e := range events {
		ce := chromeEvent{
			Name: r.chromeName(e),
			Cat:  e.Kind.String(),
			TS:   e.Time * 1e6,
			PID:  0,
			TID:  int(e.Proc),
		}
		if e.Dur > 0 {
			d := e.Dur * 1e6
			ce.Phase = "X"
			ce.Dur = &d
			// A complete slice spans [ts, ts+dur]; our Time stamps are the
			// event's completion, so shift the slice back to its start.
			ce.TS -= d
		} else {
			ce.Phase = "i"
			ce.Scope = "t"
		}
		args := map[string]any{}
		if e.Bytes != 0 {
			args["bytes"] = e.Bytes
		}
		if e.Peer >= 0 {
			args["peer"] = int(e.Peer)
		}
		if e.Req >= 0 {
			args["req"] = int(e.Req)
		}
		if e.Class != dist.CommNone {
			args["class"] = e.Class.String()
		}
		if len(args) > 0 {
			ce.Args = args
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
