// Derived views over a recorder: per-class totals, the P×P communication
// matrix, and deterministic text renderings (the simulator's text rendering
// is byte-stable across runs and golden-tested).
package trace

import (
	"fmt"
	"sort"
	"strings"

	"phpf/internal/dist"
)

// ClassCount is the exact planned-communication activity of one class.
type ClassCount struct {
	Msgs  int64
	Bytes int64
}

// SendsByClass returns the exact per-class counts of planned messages sent
// (Send events carrying a requirement ID). Classes with no activity are
// omitted.
func (r *Recorder) SendsByClass() map[dist.CommClass]ClassCount {
	if r == nil {
		return nil
	}
	out := map[dist.CommClass]ClassCount{}
	for c := 0; c < nclasses; c++ {
		m, b := r.classMsgs[c].Load(), r.classByte[c].Load()
		if m != 0 || b != 0 {
			out[dist.CommClass(c)] = ClassCount{Msgs: m, Bytes: b}
		}
	}
	return out
}

// CommMatrix is the P×P planned point-to-point communication activity:
// entry [from*N+to] counts the deliveries from processor `from` to `to`.
type CommMatrix struct {
	N     int
	Msgs  []int64
	Bytes []int64
}

// CommMatrix snapshots the recorder's exact pairwise matrix.
func (r *Recorder) CommMatrix() *CommMatrix {
	if r == nil {
		return nil
	}
	m := &CommMatrix{
		N:     r.nprocs,
		Msgs:  make([]int64, r.nprocs*r.nprocs),
		Bytes: make([]int64, r.nprocs*r.nprocs),
	}
	for i := range m.Msgs {
		m.Msgs[i] = r.matMsgs[i].Load()
		m.Bytes[i] = r.matBytes[i].Load()
	}
	return m
}

// Total sums the matrix.
func (m *CommMatrix) Total() ClassCount {
	var t ClassCount
	for i := range m.Msgs {
		t.Msgs += m.Msgs[i]
		t.Bytes += m.Bytes[i]
	}
	return t
}

// String renders the matrix as a table of "msgs/bytes" cells (rows = sender,
// columns = receiver), skipping the header for the 1-processor case.
func (m *CommMatrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s", "src\\dst")
	for to := 0; to < m.N; to++ {
		fmt.Fprintf(&b, " %12s", fmt.Sprintf("p%d", to))
	}
	b.WriteString("\n")
	for from := 0; from < m.N; from++ {
		fmt.Fprintf(&b, "%6s", fmt.Sprintf("p%d", from))
		for to := 0; to < m.N; to++ {
			i := from*m.N + to
			if m.Msgs[i] == 0 {
				fmt.Fprintf(&b, " %12s", ".")
			} else {
				fmt.Fprintf(&b, " %12s", fmt.Sprintf("%d/%dB", m.Msgs[i], m.Bytes[i]))
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FormatEvent renders one event as a deterministic single line.
func (r *Recorder) FormatEvent(e Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%.9f p%d %s", e.Time, e.Proc, e.Kind)
	if e.Peer >= 0 {
		switch e.Kind {
		case Send:
			fmt.Fprintf(&b, "->p%d", e.Peer)
		case Recv, Wait:
			fmt.Fprintf(&b, "<-p%d", e.Peer)
		default:
			fmt.Fprintf(&b, " p%d", e.Peer)
		}
	}
	if e.Class != dist.CommNone {
		fmt.Fprintf(&b, " %s", e.Class)
	}
	if e.Bytes != 0 {
		fmt.Fprintf(&b, " %dB", e.Bytes)
	}
	if e.Dur != 0 {
		fmt.Fprintf(&b, " dur=%.9f", e.Dur)
	}
	if e.Req >= 0 {
		fmt.Fprintf(&b, " req%d", e.Req)
	}
	if e.Stmt >= 0 {
		if l := r.Label(e.Stmt); l != "" {
			fmt.Fprintf(&b, " [%s]", l)
		} else {
			fmt.Fprintf(&b, " [s%d]", e.Stmt)
		}
	}
	return b.String()
}

// FormatEvents renders the stored event stream, one line per event, in
// Events() order — for the simulator this is the deterministic program-order
// stream the golden-trace test pins down.
func (r *Recorder) FormatEvents() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	for _, e := range r.Events() {
		b.WriteString(r.FormatEvent(e))
		b.WriteString("\n")
	}
	return b.String()
}

// Summary renders the exact aggregate view: per-class totals, per-kind
// counts, and the per-statement histogram — bounded output independent of
// ring capacity.
func (r *Recorder) Summary() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	var classes []int
	byClass := r.SendsByClass()
	for c := range byClass {
		classes = append(classes, int(c))
	}
	sort.Ints(classes)
	for _, c := range classes {
		cc := byClass[dist.CommClass(c)]
		fmt.Fprintf(&b, "class %-9s %8d msgs %12d bytes\n", dist.CommClass(c), cc.Msgs, cc.Bytes)
	}
	for k := Kind(0); k < nkinds; k++ {
		if n := r.KindCount(k); n > 0 {
			fmt.Fprintf(&b, "events %-10s %8d\n", k, n)
		}
	}
	for _, sc := range r.StmtComms() {
		name := r.Label(sc.Stmt)
		if name == "" {
			name = fmt.Sprintf("s%d", sc.Stmt)
		}
		fmt.Fprintf(&b, "stmt %-28s %8d msgs %12d bytes\n", name, sc.TotalMsgs(), sc.TotalBytes())
	}
	return b.String()
}
