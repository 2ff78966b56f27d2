package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilRegistryIsNoOp pins the "observability disabled" contract: a nil
// registry hands out nil handles and every operation on them is a safe
// no-op — this is what lets instrumented hot paths skip nil checks.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil metric handles")
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	h.Observe(0.1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	snap := r.Snapshot()
	if snap.Counters == nil || len(snap.Counters) != 0 {
		t.Fatalf("nil registry snapshot: %+v", snap)
	}
	var ring *SpanRing
	ring.Record(Span{Name: "x"}, nil, nil)
	if got := ring.Snapshot(); got != nil {
		t.Fatalf("nil ring snapshot: %v", got)
	}
	var hook Hook
	hook.Emit(TrainingEvent{}) // must not panic
}

// TestCounterGaugeConcurrent hammers one counter and gauge from many
// goroutines (run under -race) and checks the counter total is exact.
func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	g := r.Gauge("level")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Set(float64(w))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter lost updates: %d != %d", c.Value(), workers*per)
	}
	if v := g.Value(); v < 0 || v >= workers {
		t.Fatalf("gauge holds impossible value %v", v)
	}
	if again := r.Counter("hits"); again != c {
		t.Fatal("re-registration must return the same counter")
	}
}

// TestHistogramQuantiles observes a known uniform distribution and checks
// the interpolated quantiles land in the right buckets.
func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i%10) + 0.5) // uniform over [0.5, 9.5]
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-5000) > 1 {
		t.Fatalf("sum %v, want ~5000", got)
	}
	p50 := h.Quantile(0.50)
	if p50 < 4 || p50 > 6 {
		t.Fatalf("p50 %v outside [4, 6]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 9 || p99 > 10 {
		t.Fatalf("p99 %v outside [9, 10]", p99)
	}
	if p95 := h.Quantile(0.95); p95 > p99 || p50 > p95 {
		t.Fatalf("quantiles not monotone: p50=%v p95=%v p99=%v", p50, p95, p99)
	}
	// Overflow values clamp to the last bound instead of returning +Inf.
	h2 := r.Histogram("overflow", 1, 2)
	h2.Observe(100)
	if q := h2.Quantile(0.99); q != 2 {
		t.Fatalf("overflow quantile %v, want clamp to 2", q)
	}
}

// TestSnapshotJSONRoundTrip pins that a snapshot marshals to JSON (including
// the +Inf overflow bucket) and carries the expected fields back.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs").Add(7)
	r.Gauge("occ").Set(3.5)
	h := r.Histogram("lat", 0.001, 0.01)
	h.Observe(0.0005)
	h.Observe(5) // overflow bucket
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["reqs"] != 7 || back.Gauges["occ"] != 3.5 {
		t.Fatalf("round trip lost values: %s", raw)
	}
	hs := back.Histograms["lat"]
	if hs.Count != 2 || len(hs.Buckets) != 2 {
		t.Fatalf("histogram round trip: %+v", hs)
	}
	if !math.IsInf(hs.Buckets[1].Le, 1) {
		t.Fatalf("overflow bucket edge %v, want +Inf", hs.Buckets[1].Le)
	}
}

// TestSpanRingBounds fills a ring past capacity and checks only the newest
// spans survive, in order.
func TestSpanRingBounds(t *testing.T) {
	ring := NewSpanRing(4)
	for i := 0; i < 10; i++ {
		ring.Record(Span{Name: fmt.Sprintf("s%d", i), Trace: NewTraceID()}, nil, nil)
	}
	got := ring.Snapshot()
	if len(got) != 4 {
		t.Fatalf("ring kept %d spans, want 4", len(got))
	}
	for i, s := range got {
		if want := fmt.Sprintf("s%d", 6+i); s.Name != want {
			t.Fatalf("span %d is %q, want %q", i, s.Name, want)
		}
	}
	if ring.Total() != 10 {
		t.Fatalf("total %d, want 10", ring.Total())
	}
}

// TestTraceIDs checks uniqueness, non-zero minting, and the hex JSON form.
func TestTraceIDs(t *testing.T) {
	seen := map[TraceID]bool{}
	for i := 0; i < 10_000; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("zero trace id minted")
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %s after %d mints", id, i)
		}
		seen[id] = true
	}
	id := NewTraceID()
	raw, err := json.Marshal(id)
	if err != nil {
		t.Fatal(err)
	}
	var back TraceID
	if err := json.Unmarshal(raw, &back); err != nil || back != id {
		t.Fatalf("trace id JSON round trip: %s -> %v (%v)", raw, back, err)
	}
}

// TestSpanStageDur covers stage lookup on present and absent names.
func TestSpanStageDur(t *testing.T) {
	s := Span{Stages: []Stage{{Name: "queue", Dur: time.Millisecond}, {Name: "compute", Dur: time.Second}}}
	if s.StageDur("compute") != time.Second || s.StageDur("queue") != time.Millisecond {
		t.Fatal("wrong stage durations")
	}
	if s.StageDur("missing") != 0 {
		t.Fatal("missing stage must read 0")
	}
}

// TestHooks covers fan-out, the progress line, and CSV output.
func TestHooks(t *testing.T) {
	ev := TrainingEvent{
		Run: "member-01", Iteration: 40, Epoch: 0.5, Loss: -1.25, CE: 0.75,
		NoiseL1: 321.5, InVivo: 1.8, BatchAcc: 0.9375, Lambda: 0.01,
		Elapsed: 1500 * time.Millisecond,
	}

	var progress, csv bytes.Buffer
	n := 0
	h := Hooks(nil, ProgressHook(&progress), CSVHook(&csv), func(TrainingEvent) { n++ })
	h.Emit(ev)
	h.Emit(ev)
	if n != 2 {
		t.Fatalf("fan-out delivered %d events, want 2", n)
	}
	line := progress.String()
	for _, want := range []string{"member-01", "iter   40", "1/snr 1.800", "93.8%"} {
		if !strings.Contains(line, want) {
			t.Fatalf("progress line %q missing %q", line, want)
		}
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "run,iteration,") {
		t.Fatalf("CSV output: %q", csv.String())
	}
	if !strings.HasPrefix(lines[1], "member-01,40,") {
		t.Fatalf("CSV row: %q", lines[1])
	}

	if Hooks(nil, nil) != nil {
		t.Fatal("all-nil Hooks must collapse to nil")
	}
}
