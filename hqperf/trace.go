package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Spans are recorded only by this benchmark's own code, around its calls
// into each layer's public functions; nothing inside the program under test
// is instrumented. A span's name is "<layer>.<call>", and its self time is
// its duration minus the time its child spans cover. Spans of one gate cycle
// (or one program run) share a cycle id.

// span is one recorded interval. start and end are nanoseconds since the
// trace epoch; parent indexes the same recorder's spans (-1 for a root).
type span struct {
	name       string
	parent     int32
	cycle      uint64
	start, end int64
}

// recorder collects the spans of one goroutine; it is never shared, so
// recording takes no lock. A nil recorder records nothing, which is how the
// untraced runs skip tracing at the cost of a nil check per call.
type recorder struct {
	epoch time.Time
	spans []span
}

// tracer hands out recorders and keeps them for the report.
type tracer struct {
	epoch time.Time
	recs  []*recorder
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// recorder returns a fresh per-goroutine recorder; nil when t is nil. Call
// it from the goroutine that owns the tracer, before handing the recorder to
// the goroutine that records into it.
func (t *tracer) recorder() *recorder {
	if t == nil {
		return nil
	}
	r := &recorder{epoch: t.epoch}
	t.recs = append(t.recs, r)
	return r
}

func (r *recorder) begin(name string, parent int32, cycle uint64) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, parent: parent, cycle: cycle, start: int64(time.Since(r.epoch))})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].end = int64(time.Since(r.epoch))
}

// spanStat aggregates one span name.
type spanStat struct {
	name            string
	count           int
	totalMs, selfMs float64
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// stats aggregates every recorded span by name, with self times.
func (t *tracer) stats() []spanStat {
	agg := map[string]*spanStat{}
	for _, r := range t.recs {
		child := make([]int64, len(r.spans))
		for _, s := range r.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range r.spans {
			st := agg[s.name]
			if st == nil {
				st = &spanStat{name: s.name}
				agg[s.name] = st
			}
			d := s.end - s.start
			st.count++
			st.totalMs += float64(d) / 1e6
			st.selfMs += float64(d-child[i]) / 1e6
		}
	}
	out := make([]spanStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// spanDurations returns the durations, in nanoseconds, of every span named
// name.
func (t *tracer) spanDurations(name string) []float64 {
	var out []float64
	for _, r := range t.recs {
		for _, s := range r.spans {
			if s.name == name {
				out = append(out, float64(s.end-s.start))
			}
		}
	}
	return out
}

// maxWrittenSpans bounds the span file; the aggregates always cover every
// span.
const maxWrittenSpans = 200000

// write stores the spans as JSON lines, the first maxWrittenSpans of them in
// recording order, with ids global across recorders.
func (t *tracer) write(path string) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	type line struct {
		ID      int    `json:"id"`
		Parent  int    `json:"parent"`
		Cycle   uint64 `json:"cycle"`
		Name    string `json:"name"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	enc := json.NewEncoder(w)
	n, base := 0, 0
	for _, r := range t.recs {
		for i, s := range r.spans {
			if n == maxWrittenSpans {
				break
			}
			parent := -1
			if s.parent >= 0 {
				parent = base + int(s.parent)
			}
			if err := enc.Encode(line{ID: base + i, Parent: parent, Cycle: s.cycle, Name: s.name, StartNs: s.start, EndNs: s.end}); err != nil {
				f.Close()
				return n, err
			}
			n++
		}
		base += len(r.spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	if err := f.Close(); err != nil {
		return n, fmt.Errorf("closing span file: %w", err)
	}
	return n, nil
}
