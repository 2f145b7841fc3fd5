package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"phpf/internal/dist"
)

// send builds a planned point-to-point Send event.
func send(t float64, from, to int32, bytes int64, class dist.CommClass, stmt, req int32) Event {
	return Event{Time: t, Kind: Send, Proc: from, Peer: to, Bytes: bytes, Class: class, Stmt: stmt, Req: req}
}

// TestNilRecorder pins the disabled-tracing contract: a nil *Recorder is a
// valid recorder whose every method is a no-op.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Emit(0, send(1, 0, 1, 8, dist.CommShift, 3, 0))
	r.SetLabels(map[int]string{1: "x"})
	if r.Enabled() {
		t.Error("nil recorder reports Enabled")
	}
	if r.NProcs() != 0 || r.Seen() != 0 || r.Len() != 0 || r.KindCount(Send) != 0 {
		t.Error("nil recorder reports activity")
	}
	if r.Events() != nil || r.Timeline(0) != nil || r.StmtComms() != nil {
		t.Error("nil recorder returns events")
	}
	if r.SendsByClass() != nil || r.CommMatrix() != nil {
		t.Error("nil recorder returns views")
	}
	if r.Label(3) != "" || r.FormatEvents() != "" || r.Summary() != "" {
		t.Error("nil recorder renders text")
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
	var f struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("nil Chrome trace is not JSON: %v", err)
	}
	if len(f.TraceEvents) != 0 {
		t.Errorf("nil Chrome trace has %d events", len(f.TraceEvents))
	}
}

// TestZeroAllocationDisabled guards the acceptance criterion directly:
// emitting through a nil recorder allocates nothing.
func TestZeroAllocationDisabled(t *testing.T) {
	var r *Recorder
	e := send(1, 0, 1, 8, dist.CommShift, 3, 0)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Emit(0, e)
	})
	if allocs != 0 {
		t.Fatalf("disabled event path allocates %v bytes/op, want 0", allocs)
	}
}

// BenchmarkEmitEnabled measures the enabled hot path (steady state: ring
// full, statement entry present — the per-event work is counter updates and
// one ring store).
func BenchmarkEmitEnabled(b *testing.B) {
	r := newRing(4, 1, 1024)
	e := send(1, 0, 1, 8, dist.CommShift, 3, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(0, e)
	}
}

// TestRingWrapAround checks that a full ring keeps the newest events and
// Events() returns them oldest-first.
func TestRingWrapAround(t *testing.T) {
	r := newRing(2, 1, 4)
	for i := 0; i < 10; i++ {
		r.Emit(0, Event{Time: float64(i), Kind: Compute, Proc: 0, Peer: -1, Stmt: -1, Req: -1})
	}
	if r.Seen() != 10 {
		t.Fatalf("Seen = %d, want 10", r.Seen())
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want capacity 4", r.Len())
	}
	evs := r.Events()
	want := []float64{6, 7, 8, 9}
	for i, e := range evs {
		if e.Time != want[i] {
			t.Fatalf("event %d has time %v, want %v (events: %v)", i, e.Time, want[i], evs)
		}
	}
	// Exact counters are unaffected by eviction.
	if r.KindCount(Compute) != 10 {
		t.Errorf("KindCount(Compute) = %d, want 10", r.KindCount(Compute))
	}
}

// TestSamplingBounds checks 1-in-N sampling: the ring stores ceil(seen/N)
// events while every exact counter still sees all of them.
func TestSamplingBounds(t *testing.T) {
	const n, every = 103, 10
	r := New(2, 1, Options{SampleEvery: every})
	for i := 0; i < n; i++ {
		r.Emit(0, send(float64(i), 0, 1, 4, dist.CommShift, 7, 2))
	}
	if r.Seen() != n {
		t.Fatalf("Seen = %d, want %d", r.Seen(), n)
	}
	wantStored := (n + every - 1) / every
	if r.Len() != wantStored {
		t.Fatalf("Len = %d, want ceil(%d/%d) = %d", r.Len(), n, every, wantStored)
	}
	if got := r.KindCount(Send); got != n {
		t.Errorf("KindCount(Send) = %d, want %d", got, n)
	}
	cc := r.SendsByClass()[dist.CommShift]
	if cc.Msgs != n || cc.Bytes != int64(4*n) {
		t.Errorf("class shift = %d msgs/%d bytes, want %d/%d", cc.Msgs, cc.Bytes, n, 4*n)
	}
	m := r.CommMatrix()
	if m.Msgs[0*2+1] != n || m.Bytes[0*2+1] != int64(4*n) {
		t.Errorf("matrix[0->1] = %d/%d, want %d/%d", m.Msgs[1], m.Bytes[1], n, 4*n)
	}
	scs := r.StmtComms()
	if len(scs) != 1 || scs[0].Stmt != 7 || scs[0].TotalMsgs() != n || scs[0].TotalBytes() != int64(4*n) {
		t.Errorf("stmt histogram %+v, want stmt 7 with %d msgs/%d bytes", scs, n, 4*n)
	}
}

// TestCountersSelective checks that only planned Sends (Req >= 0) reach the
// class counters, matrix, and histograms — Recvs, collectives (Peer = -1),
// and protocol traffic stay out.
func TestCountersSelective(t *testing.T) {
	r := New(2, 1, Options{})
	r.Emit(0, send(1, 0, 1, 8, dist.CommShift, 3, 5))  // counted
	r.Emit(0, send(2, 0, 1, 8, dist.CommShift, 3, -1)) // req < 0: ring only
	r.Emit(0, Event{Time: 3, Kind: Recv, Proc: 1, Peer: 0, Bytes: 8, Class: dist.CommShift, Stmt: 3, Req: 5})
	r.Emit(0, Event{Time: 4, Kind: Send, Proc: 0, Peer: -1, Bytes: 8, Class: dist.CommGeneral, Stmt: 3, Req: 6}) // collective: class yes, matrix no
	if got := r.SendsByClass()[dist.CommShift].Msgs; got != 1 {
		t.Errorf("shift msgs = %d, want 1", got)
	}
	if got := r.SendsByClass()[dist.CommGeneral].Msgs; got != 1 {
		t.Errorf("general msgs = %d, want 1", got)
	}
	if got := r.CommMatrix().Total(); got.Msgs != 1 || got.Bytes != 8 {
		t.Errorf("matrix total = %+v, want 1 msg/8 bytes", got)
	}
	if got := r.StmtComms()[0].TotalMsgs(); got != 2 {
		t.Errorf("stmt msgs = %d, want 2 (planned sends only)", got)
	}
	if r.Len() != 4 {
		t.Errorf("ring stores %d events, want all 4", r.Len())
	}
}

// TestConcurrentShards checks the concurrency contract under -race: distinct
// goroutines emitting into distinct shards while another goroutine reads the
// atomic counters live.
func TestConcurrentShards(t *testing.T) {
	const nshards, perShard = 8, 2000
	r := newRing(nshards, nshards, 256)
	done := make(chan struct{})
	go func() { // live counter reader
		for {
			select {
			case <-done:
				return
			default:
				_ = r.KindCount(Send)
				_ = r.SendsByClass()
				_ = r.CommMatrix()
			}
		}
	}()
	var wg sync.WaitGroup
	for sh := 0; sh < nshards; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			from := int32(sh)
			to := (from + 1) % nshards
			for i := 0; i < perShard; i++ {
				r.Emit(sh, send(float64(i), from, to, 2, dist.CommShift, int32(sh), 1))
			}
		}(sh)
	}
	wg.Wait()
	close(done)
	if got := r.KindCount(Send); got != nshards*perShard {
		t.Fatalf("KindCount(Send) = %d, want %d", got, nshards*perShard)
	}
	m := r.CommMatrix()
	for sh := 0; sh < nshards; sh++ {
		i := sh*nshards + (sh+1)%nshards
		if m.Msgs[i] != perShard {
			t.Fatalf("matrix entry %d = %d, want %d", i, m.Msgs[i], perShard)
		}
	}
	if got := len(r.StmtComms()); got != nshards {
		t.Fatalf("merged %d stmt histograms, want %d", got, nshards)
	}
}

// TestChromeTraceShape checks the exporter: valid JSON, complete events
// shifted back by their duration, instants for zero-duration events.
func TestChromeTraceShape(t *testing.T) {
	r := New(2, 1, Options{})
	r.SetLabels(map[int]string{3: "s3 line 14 y = ..."})
	r.Emit(0, Event{Time: 2.5, Dur: 0.5, Kind: Compute, Proc: 0, Peer: -1, Stmt: 3, Req: -1})
	r.Emit(0, Event{Time: 3, Kind: Fault, Proc: 1, Peer: -1, Stmt: -1, Req: -1})
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name  string   `json:"name"`
			Phase string   `json:"ph"`
			TS    float64  `json:"ts"`
			Dur   *float64 `json:"dur"`
			TID   int      `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(f.TraceEvents) != 2 {
		t.Fatalf("%d trace events, want 2", len(f.TraceEvents))
	}
	c := f.TraceEvents[0]
	if c.Phase != "X" || c.Dur == nil || *c.Dur != 0.5e6 || c.TS != 2e6 || c.TID != 0 {
		t.Errorf("complete slice = %+v, want ph X at ts 2e6 dur 0.5e6 on tid 0", c)
	}
	if !strings.Contains(c.Name, "s3 line 14") {
		t.Errorf("slice name %q does not carry the statement label", c.Name)
	}
	i := f.TraceEvents[1]
	if i.Phase != "i" || i.TS != 3e6 || i.TID != 1 {
		t.Errorf("instant = %+v, want ph i at ts 3e6 on tid 1", i)
	}
}

// TestTimelineOrder checks per-processor timelines are time-sorted even when
// the underlying shards interleave.
func TestTimelineOrder(t *testing.T) {
	r := New(2, 2, Options{})
	r.Emit(1, Event{Time: 2, Kind: Recv, Proc: 0, Peer: 1, Stmt: -1, Req: 0})
	r.Emit(0, Event{Time: 1, Kind: Compute, Proc: 0, Peer: -1, Stmt: -1, Req: -1})
	r.Emit(0, Event{Time: 3, Kind: Compute, Proc: 1, Peer: -1, Stmt: -1, Req: -1})
	tl := r.Timeline(0)
	if len(tl) != 2 || tl[0].Time != 1 || tl[1].Time != 2 {
		t.Fatalf("timeline(0) = %v, want times [1 2]", tl)
	}
}

// TestFormatEventStable pins the single-line rendering the golden trace test
// depends on.
func TestFormatEventStable(t *testing.T) {
	r := New(4, 1, Options{})
	r.SetLabels(map[int]string{5: "s5 line 16 a((i + 1)) = ..."})
	got := r.FormatEvent(send(0.0025, 1, 2, 800, dist.CommShift, 5, 4))
	want := fmt.Sprintf("%.9f p1 send->p2 shift 800B req4 [s5 line 16 a((i + 1)) = ...]", 0.0025)
	if got != want {
		t.Fatalf("FormatEvent = %q, want %q", got, want)
	}
}
