package obs

import (
	"math"
	"testing"
	"time"
)

// TestWindowCounterRates: deltas and rates come from the ring boundaries,
// and observations age out once the ring rotates past them.
func TestWindowCounterRates(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("server.requests")
	w := NewWindows(reg, WindowOptions{Bucket: time.Second, Buckets: 4})

	t0 := time.Unix(1000, 0)
	w.Advance(t0)
	c.Add(10)
	ws := w.Advance(t0.Add(2 * time.Second))
	if got := ws.Counters["server.requests"]; got.Delta != 10 {
		t.Fatalf("window delta = %+v, want 10", got)
	}
	if got := ws.Counters["server.requests"].Rate; math.Abs(got-5) > 1e-9 {
		t.Fatalf("window rate = %v, want 5/s", got)
	}
	if ws.Seconds != 2 {
		t.Fatalf("covered span = %v, want 2s", ws.Seconds)
	}

	// Advance far enough that the ring rotates the burst out: with 4
	// buckets of 1s, after 5 more one-second ticks with no traffic the
	// oldest retained sample post-dates the burst and the delta drops to 0.
	at := t0.Add(2 * time.Second)
	var last *WindowSnapshot
	for i := 0; i < 5; i++ {
		at = at.Add(time.Second)
		last = w.Advance(at)
	}
	if got := last.Counters["server.requests"]; got.Delta != 0 {
		t.Fatalf("burst should have aged out of the window: %+v", got)
	}
	if v := reg.Snapshot().Counters["server.requests"]; v != 10 {
		t.Fatalf("cumulative value must be untouched by windowing: %d", v)
	}
}

// TestWindowSubBucketAdvance: calling Advance faster than the bucket
// duration refreshes the leading edge without rotating the ring, so the
// covered span keeps growing toward the configured window.
func TestWindowSubBucketAdvance(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("x")
	w := NewWindows(reg, WindowOptions{Bucket: time.Second, Buckets: 3})
	t0 := time.Unix(0, 0)
	w.Advance(t0)
	for i := 1; i <= 10; i++ {
		c.Inc()
		ws := w.Advance(t0.Add(time.Duration(i) * 100 * time.Millisecond))
		if ws.Counters["x"].Delta != int64(i) {
			t.Fatalf("tick %d: delta %d, want %d (sub-bucket ticks must not evict)", i, ws.Counters["x"].Delta, i)
		}
	}
}

// TestWindowHistogramQuantiles: windowed quantiles reflect only the
// window's observations, not lifetime history.
func TestWindowHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", 0.001, 0.01, 0.1, 1)
	w := NewWindows(reg, WindowOptions{Bucket: time.Second, Buckets: 4})
	t0 := time.Unix(0, 0)

	// Lifetime history: a thousand fast observations.
	for i := 0; i < 1000; i++ {
		h.Observe(0.0005)
	}
	w.Advance(t0)

	// Window: a hundred slow ones.
	for i := 0; i < 100; i++ {
		h.Observe(0.5)
	}
	ws := w.Advance(t0.Add(time.Second))
	wh := ws.Histograms["lat"]
	if wh.Count != 100 {
		t.Fatalf("window count = %d, want 100", wh.Count)
	}
	if wh.P50 < 0.1 || wh.P50 > 1 {
		t.Fatalf("window p50 = %v should sit in the slow bucket (0.1, 1]", wh.P50)
	}
	if math.Abs(wh.Mean-0.5) > 1e-9 {
		t.Fatalf("window mean = %v, want 0.5", wh.Mean)
	}
	// The cumulative quantile still reflects the fast lifetime majority.
	if p50 := h.Quantile(0.5); p50 > 0.001 {
		t.Fatalf("cumulative p50 = %v should stay in the fast bucket", p50)
	}
}

// TestWindowOverflowBucket: observations past the last bound land in the
// +Inf bucket and windowed quantiles clamp to the last finite edge, like
// the cumulative path.
func TestWindowOverflowBucket(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", 0.001, 0.01)
	w := NewWindows(reg, WindowOptions{Bucket: time.Second, Buckets: 2})
	h.Observe(0.005) // lifetime observation that keeps a finite bucket edge visible
	t0 := time.Unix(0, 0)
	w.Advance(t0)
	for i := 0; i < 10; i++ {
		h.Observe(99) // way past the last bound
	}
	ws := w.Advance(t0.Add(time.Second))
	wh := ws.Histograms["lat"]
	if wh.Count != 10 {
		t.Fatalf("window count = %d, want 10", wh.Count)
	}
	if wh.P99 != 0.01 {
		t.Fatalf("overflow quantile should clamp to last finite bound: %v", wh.P99)
	}
}

// TestWindowMidRegistration: a metric registered mid-window baselines at
// zero instead of being dropped.
func TestWindowMidRegistration(t *testing.T) {
	reg := NewRegistry()
	w := NewWindows(reg, WindowOptions{Bucket: time.Second, Buckets: 4})
	t0 := time.Unix(0, 0)
	w.Advance(t0)
	reg.Counter("late").Add(7)
	ws := w.Advance(t0.Add(time.Second))
	if got := ws.Counters["late"]; got.Delta != 7 {
		t.Fatalf("mid-window registration: %+v, want delta 7", got)
	}
}

// TestWindowNilSafety: nil windows are valid disabled windows.
func TestWindowNilSafety(t *testing.T) {
	var w *Windows
	if w != NewWindows(nil, WindowOptions{}) {
		t.Fatal("NewWindows(nil) should be nil")
	}
	if ws := w.Advance(time.Now()); ws != nil {
		t.Fatalf("nil window Advance: %+v", ws)
	}
	if ws := w.Snapshot(); ws != nil {
		t.Fatalf("nil window Snapshot: %+v", ws)
	}
	stop := w.Start()
	stop()
	if w.Bucket() != 0 {
		t.Fatal("nil window Bucket should be 0")
	}
}

// TestWindowSnapshotPureRead: Snapshot computes the live window without
// rotating the ring.
func TestWindowSnapshotPureRead(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("x")
	w := NewWindows(reg, WindowOptions{Bucket: time.Second, Buckets: 2})
	if w.Snapshot() != nil {
		t.Fatal("window Snapshot before first Advance should be nil")
	}
	w.Advance(time.Unix(0, 0))
	c.Add(3)
	for i := 0; i < 5; i++ {
		if ws := w.Snapshot(); ws.Counters["x"].Delta != 3 {
			t.Fatalf("read %d: %+v", i, ws.Counters["x"])
		}
	}
}

// TestWindowStartStop: the background goroutine rotates the ring at every
// tick (old observations age out without any explicit Advance call) and
// stop is idempotent. The test is the clock: it sends the ticks.
func TestWindowStartStop(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("x")
	const bucket = 5 * time.Millisecond
	w := NewWindows(reg, WindowOptions{Bucket: bucket, Buckets: 2})
	base := time.Now()
	w.Advance(base) // baseline before the burst
	c.Add(1)
	if ws := w.Snapshot(); ws.Counters["x"].Delta != 1 {
		t.Fatalf("burst not visible: %+v", ws.Counters["x"])
	}
	ticks := make(chan time.Time)
	released := false
	stop := w.startOn(ticks, func() { released = true })
	// Enough boundaries to push the pre-burst baseline out of a two-bucket
	// ring. A tick is received only once the one before it was acted on, and
	// stop returns only once the last one was.
	for i := 1; i <= 4; i++ {
		ticks <- base.Add(time.Duration(i) * bucket)
	}
	stop()
	stop() // idempotent
	if !released {
		t.Fatal("stop returned before the goroutine released its ticker")
	}
	if ws := w.Snapshot(); ws.Counters["x"].Delta != 0 {
		t.Fatalf("four ticks did not rotate the burst out of the window: %+v", ws.Counters["x"])
	}

	// On the real ticker: starts and stops, twice.
	onTicker := NewWindows(reg, WindowOptions{Bucket: time.Hour, Buckets: 2})
	stop = onTicker.Start()
	stop()
	stop()
}

// TestMergeSnapshotWindow: a source's windowed series fold in under its
// label prefix, with the covered span surfaced as a prefixed gauge.
func TestMergeSnapshotWindow(t *testing.T) {
	src := Snapshot{
		Counters: map[string]int64{"server.requests": 100},
		Gauges:   map[string]float64{},
		Window: &WindowSnapshot{
			Seconds:    30,
			Counters:   map[string]WindowCounter{"server.requests": {Delta: 10, Rate: 0.333}},
			Histograms: map[string]WindowHistogram{"server.latency_seconds": {Count: 10, P99: 0.004}},
		},
	}
	dst := NewRegistry().Snapshot()
	MergeSnapshot(&dst, "backend.a", src)
	if got := dst.Window.Counters["backend.a.server.requests"]; got.Delta != 10 {
		t.Fatalf("merged window counter: %+v", got)
	}
	if got := dst.Window.Histograms["backend.a.server.latency_seconds"]; got.P99 != 0.004 {
		t.Fatalf("merged window histogram: %+v", got)
	}
	if got := dst.Gauges["backend.a.window.seconds"]; got != 30 {
		t.Fatalf("merged window span gauge: %v", got)
	}
}
