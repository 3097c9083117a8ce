package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// A span is one timed interval at a layer boundary. Spans of one track
// nest strictly, so a span's parent is the span that was open on the
// same track when it began.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int32         // index into the track's spans, -1 for a root
	op         int32         // the timed op (or request) the span belongs to
}

func (s span) dur() time.Duration { return s.end - s.start }

// A track is the span list of one goroutine: the harness loop, one LBM
// rank, one load-generator connection. Only its owner appends to it.
type track struct {
	name  string
	epoch time.Time
	on    bool  // spans are recorded only while set
	op    int32 // stamped on every span begun
	spans []span
	open  []int32
}

// begin opens a span and returns its handle; on a nil or switched-off
// track it returns -1, which end ignores.
func (t *track) begin(name string) int32 {
	if t == nil || !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent, op: t.op})
	t.open = append(t.open, id)
	return id
}

func (t *track) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].end = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// tracer owns the tracks of one traced run. A nil tracer is a run with
// tracing off: newTrack returns nil tracks, whose begin/end do nothing.
type tracer struct {
	epoch  time.Time
	tracks []*track
	sums   []map[string]spanSum // per track, filled by summarize
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newTrack must be called before the goroutine that owns the track starts.
func (tr *tracer) newTrack(name string) *track {
	if tr == nil {
		return nil
	}
	t := &track{name: name, epoch: tr.epoch}
	tr.tracks = append(tr.tracks, t)
	return t
}

// arm switches every track on or off and stamps the op id for the spans
// that follow. The harness calls it between ops, when no rank goroutine
// is running.
func (tr *tracer) arm(on bool, op int) {
	if tr == nil {
		return
	}
	for _, t := range tr.tracks {
		t.on, t.op = on, int32(op)
	}
}

// selfTimes returns, per span, its duration minus the part its direct
// children cover: the time spent in the layer itself.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// spanSum aggregates the spans of one name.
type spanSum struct {
	n           int
	total, self time.Duration
}

// summarize aggregates every track once the run is over; sum,
// slowestTrack and printTable read the result.
func (tr *tracer) summarize() {
	tr.sums = tr.sums[:0]
	for _, t := range tr.tracks {
		tr.sums = append(tr.sums, t.byName())
	}
}

func (t *track) byName() map[string]spanSum {
	out := map[string]spanSum{}
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		a := out[s.name]
		a.n++
		a.total += s.dur()
		a.self += self[i]
		out[s.name] = a
	}
	return out
}

// sum adds the spans of one name over all tracks.
func (tr *tracer) sum(name string) spanSum {
	var out spanSum
	for _, by := range tr.sums {
		a := by[name]
		out.n += a.n
		out.total += a.total
		out.self += a.self
	}
	return out
}

// slowestTrack returns, over tracks, the largest per-track total of pick
// applied to the named spans: the rank that sets the step time.
func (tr *tracer) slowestTrack(name string, pick func(spanSum) time.Duration) time.Duration {
	var worst time.Duration
	for _, by := range tr.sums {
		if d := pick(by[name]); d > worst {
			worst = d
		}
	}
	return worst
}

// durations lists the durations of every span of one name.
func (tr *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, t := range tr.tracks {
		for _, s := range t.spans {
			if s.name == name {
				out = append(out, s.dur())
			}
		}
	}
	return out
}

// printTable writes the per-span-name totals with self time.
func (tr *tracer) printTable(w *bufio.Writer) {
	all := map[string]spanSum{}
	var selfTotal time.Duration
	for _, by := range tr.sums {
		for name, a := range by {
			b := all[name]
			b.n += a.n
			b.total += a.total
			b.self += a.self
			all[name] = b
			selfTotal += a.self
		}
	}
	names := make([]string, 0, len(all))
	for name := range all {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %10s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self%")
	for _, name := range names {
		a := all[name]
		fmt.Fprintf(w, "%-28s %10d %12.3f %12.3f %6.1f%%\n", name, a.n, ms(a.total), ms(a.self),
			100*float64(a.self)/float64(selfTotal))
	}
}

// writeChrome writes the spans of ops [0, fingerprintOps) as
// Chrome-trace JSON (chrome://tracing, Perfetto), one thread per track.
// Spans of later ops stay in memory for the self-time table only: the
// file of a whole lbm-cpu run would be 40 MB.
func (tr *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	sep := func() {
		if !first {
			w.WriteString(",\n")
		}
		first = false
	}
	for tid, t := range tr.tracks {
		sep()
		fmt.Fprintf(w, `{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%s}}`, tid, strconv.Quote(t.name))
		for _, s := range t.spans {
			if s.op < 0 || s.op >= fingerprintOps {
				continue
			}
			parent := ""
			if s.parent >= 0 {
				parent = t.spans[s.parent].name
			}
			sep()
			fmt.Fprintf(w, `{"name":%s,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d,"parent":%s}}`,
				strconv.Quote(s.name), tid, us(s.start), us(s.dur()), s.op, strconv.Quote(parent))
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
