package main

// Host-side measurement helpers: quantiles, process CPU time, allocation
// counters and peak resident memory.

import (
	"bufio"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// quantile returns the q-quantile (nearest rank) of xs, 0 when xs is empty.
// It sorts a copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quiet keeps the wall time of every execution of every piece of repeated
// work: one input of a cycle, one kind of request, one stage of the set-up.
// The machines this runs on take the processor away for tens of microseconds
// to milliseconds several hundred times a second and have slow phases that
// last seconds to minutes; both only ever add time, and the shorter a piece
// is and the more often it runs, the likelier some of its executions escape
// them. A nil *quiet records nothing.
type quiet struct {
	seconds [][]float64 // by piece
}

func (q *quiet) add(piece int, d time.Duration) {
	if q != nil {
		q.extend(piece, d.Seconds())
	}
}

func (q *quiet) merge(o *quiet) {
	for piece, s := range o.seconds {
		q.extend(piece, s...)
	}
}

func (q *quiet) extend(piece int, seconds ...float64) {
	for len(q.seconds) <= piece {
		q.seconds = append(q.seconds, nil)
	}
	q.seconds[piece] = append(q.seconds[piece], seconds...)
}

// total is what every recorded execution would have taken together, in
// seconds, had each been its piece's quiet one: the fastest. The slow phases
// run at 1.5-1.7 times the quiet speed and leave gaps of a few executions
// between them; a low percentile needs that share of a run to fall into the
// gaps, the fastest execution needs one gap. (README.md has the measurements.)
func (q *quiet) total() float64 {
	var t float64
	for _, s := range q.seconds {
		if len(s) > 0 {
			t += float64(len(s)) * slices.Min(s)
		}
	}
	return t
}

// usage is a snapshot of the process-wide host counters that the per-op
// rates are deltas of.
type usage struct {
	wall    time.Time
	cpu     time.Duration // user + system, all threads
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{wall: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// cpuTime is the process's user+system CPU time so far, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with a valid pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs returns the process's cumulative heap object count; deltas around
// a single-goroutine call count that call's allocations.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// peakRSSMiB reads VmHWM, the process's peak resident set so far.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
