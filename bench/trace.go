package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span kinds. A real span is timed where the work happens and nests inside
// its parent's interval. A shadow span repeats, in process and after the
// parent has ended, work the parent did out of the benchmark's reach (the
// cloud forward pass behind a round trip); the parent's self time is its
// duration minus its shadow children. A probe span is an extra measurement
// on the same data that mirrors nothing inside the parent.
const (
	kindReal   = "real"
	kindShadow = "shadow"
	kindProbe  = "probe"
)

// span is one timed call into a layer. Spans of one request share Req; IDs
// start at 1 and Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// count is one number taken at a layer boundary outside any request: a
// micro-benchmark result, a counter read from the program, a process gauge.
type count struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tracer keeps spans and counts in memory; write puts them on disk once the
// run is over, so tracing costs the traced path two clock reads per span and
// no I/O.
type tracer struct {
	t0     time.Time
	spans  []span
	counts []count
}

func newTracer(spanCap int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, spanCap)}
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name, kind string, parent, req int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Kind: kind,
		Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

func (t *tracer) count(name string, value float64, unit string) {
	t.counts = append(t.counts, count{name, value, unit})
}

// durations returns the duration of every span called name, in microseconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// p50us is the median duration of the spans called name, 0 when there are
// none (a layer the workload does not use).
func (t *tracer) p50us(name string) float64 { return median(t.durations(name)) }

// selfTimes returns, for every span called name, its duration minus its
// shadow children, in microseconds.
func (t *tracer) selfTimes(name string) []float64 {
	shadow := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Kind == kindShadow {
			shadow[s.Parent] += s.dur()
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()-shadow[s.ID])/1e3)
		}
	}
	return out
}

// coverage is the share of the spans called name that their real children
// cover, summed over all of them: how much of a request the trace explains.
func (t *tracer) coverage(name string) float64 {
	covered := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Kind == kindReal {
			covered[s.Parent] += s.dur()
		}
	}
	var total, inside time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			total += s.dur()
			inside += covered[s.ID]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(inside) / float64(total)
}

// write stores every span and count as one JSON object per line, spans
// first: {"type":"span",...} and {"type":"count",...}.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err = enc.Encode(struct {
			Type string `json:"type"`
			span
		}{"span", s}); err != nil {
			break
		}
	}
	for _, c := range t.counts {
		if err != nil {
			break
		}
		err = enc.Encode(struct {
			Type string `json:"type"`
			count
		}{"count", c})
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	return nil
}
