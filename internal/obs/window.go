package obs

import (
	"sync"
	"time"
)

// Sliding-window aggregation over the cumulative registry.
//
// Every metric in the registry is cumulative-since-start, which is the right
// primitive for a lock-free hot path but the wrong lens for operations: a
// fleet serving millions of queries hides an hour-long regression inside
// lifetime averages. Windows adds the missing lens WITHOUT adding a second
// write path: it keeps a ring of cumulative Snapshots captured at bucket
// boundaries, and a window aggregate is simply the difference between the
// newest snapshot and the oldest retained one. Counters difference into
// per-window deltas and rates; histograms difference bucket-by-bucket, so
// windowed p50/p95/p99 interpolate from exactly the same bucket layout the
// cumulative quantiles use. The hot path (Counter.Add, Histogram.Observe)
// is untouched — instrumented code cannot tell whether a window is watching
// — which is what keeps the windowed serving path within noise of
// cumulative-only (pinned by BenchmarkWindowOverhead).
type Windows struct {
	reg    *Registry
	bucket time.Duration

	mu    sync.Mutex
	cells Ring[windowCell] // n+1 slots: n bucket spans need n+1 boundary samples

	stopOnce sync.Once
	stopCh   chan struct{}
}

// windowCell is one bucket-boundary sample: the registry's cumulative state
// at one instant.
type windowCell struct {
	at   time.Time
	snap Snapshot
}

// WindowOptions sizes a sliding window.
type WindowOptions struct {
	// Bucket is the ring's bucket duration — the granularity at which old
	// observations age out. Default 5s.
	Bucket time.Duration
	// Buckets is how many buckets the window spans. Default 12 (a one-minute
	// window at the default bucket).
	Buckets int
}

func (o WindowOptions) withDefaults() WindowOptions {
	if o.Bucket <= 0 {
		o.Bucket = 5 * time.Second
	}
	if o.Buckets <= 0 {
		o.Buckets = 12
	}
	return o
}

// NewWindows builds a sliding window over reg. Returns nil (a valid,
// disabled window: every method no-ops and Snapshot returns nil) when reg
// is nil, so callers wire `win.Advance(...)` unconditionally.
func NewWindows(reg *Registry, opt WindowOptions) *Windows {
	if reg == nil {
		return nil
	}
	opt = opt.withDefaults()
	return &Windows{
		reg:    reg,
		bucket: opt.Bucket,
		cells:  MakeRing[windowCell](opt.Buckets + 1),
		stopCh: make(chan struct{}),
	}
}

// Bucket returns the bucket duration (0 on nil).
func (w *Windows) Bucket() time.Duration {
	if w == nil {
		return 0
	}
	return w.bucket
}

// Advance captures the registry's current cumulative snapshot, pushes it
// into the ring when a bucket boundary has passed since the newest sample
// (calling more often than the bucket duration refreshes the leading edge
// without rotating the ring, so scrapes and tickers can both drive the same
// window), and returns the aggregate over the retained span. Nil-safe.
func (w *Windows) Advance(now time.Time) *WindowSnapshot {
	if w == nil {
		return nil
	}
	return w.advance(now, w.reg.Snapshot())
}

// AdvanceWith is Advance against an already-taken cumulative snapshot, so
// one registry read can serve both the cumulative and windowed halves of a
// /debug/metrics payload.
func (w *Windows) AdvanceWith(now time.Time, cur Snapshot) *WindowSnapshot {
	if w == nil {
		return nil
	}
	return w.advance(now, cur)
}

func (w *Windows) advance(now time.Time, cur Snapshot) *WindowSnapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	// The newest cell; nil before the first sample (Total()-1 wraps).
	if newest := w.cells.At(w.cells.Total() - 1); newest == nil || now.Sub(newest.at) >= w.bucket {
		// A bucket boundary passed: rotate the ring, evicting the oldest
		// bucket once it is full. Sub-bucket calls fall through — the
		// aggregate below always uses the live snapshot as its leading edge,
		// so they still see fresh data without rotating.
		cell, _ := w.cells.Push()
		*cell = windowCell{at: now, snap: cur}
	}
	return diffSnapshots(*w.cells.At(w.cells.Oldest()), windowCell{at: now, snap: cur})
}

// Snapshot returns the current window aggregate without touching the ring —
// a pure read for callers that must not advance time (nil on a nil window
// or before the first Advance).
func (w *Windows) Snapshot() *WindowSnapshot {
	if w == nil {
		return nil
	}
	cur := w.reg.Snapshot()
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cells.Len() == 0 {
		return nil
	}
	return diffSnapshots(*w.cells.At(w.cells.Oldest()), windowCell{at: now, snap: cur})
}

// Start advances the window on its bucket cadence from a background
// goroutine until the returned stop function is called (idempotent).
// Nil-safe: a nil window returns a no-op stop.
func (w *Windows) Start() (stop func()) {
	if w == nil {
		return func() {}
	}
	t := time.NewTicker(w.bucket)
	return w.startOn(t.C, t.Stop)
}

// startOn is Start on the caller's clock: it advances the window to every
// time ticks delivers.
func (w *Windows) startOn(ticks <-chan time.Time, release func()) (stop func()) {
	return runOnTicks(ticks, release, &w.stopOnce, w.stopCh, func(now time.Time) { w.Advance(now) })
}

// runOnTicks calls fn with every time ticks delivers, from one background
// goroutine, until stopCh is closed. The returned stop closes stopCh (once
// per once) and returns when the goroutine has ended and run release.
func runOnTicks(ticks <-chan time.Time, release func(), once *sync.Once, stopCh chan struct{}, fn func(now time.Time)) (stop func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer release()
		for {
			select {
			case now := <-ticks:
				fn(now)
			case <-stopCh:
				return
			}
		}
	}()
	return func() {
		once.Do(func() { close(stopCh) })
		<-done
	}
}

// WindowCounter is one counter's change over the window.
type WindowCounter struct {
	Delta int64   `json:"delta"`
	Rate  float64 `json:"rate"` // per second over the covered span
}

// WindowHistogram is one histogram's change over the window: the
// observation count and rate, the mean of the windowed observations, and
// quantiles interpolated from the windowed per-bucket counts.
type WindowHistogram struct {
	Count int64   `json:"count"`
	Rate  float64 `json:"rate"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// WindowSnapshot is the windowed complement of a cumulative Snapshot: what
// changed over the last covered span, shaped for the /debug/metrics
// payload's "window" field.
type WindowSnapshot struct {
	// Seconds is the span the window actually covers — it grows from ~0
	// toward the configured window as the ring fills after startup.
	Seconds    float64                    `json:"seconds"`
	Counters   map[string]WindowCounter   `json:"counters"`
	Histograms map[string]WindowHistogram `json:"histograms"`
}

// diffSnapshots aggregates the change between two cumulative samples.
func diffSnapshots(oldc, newc windowCell) *WindowSnapshot {
	secs := newc.at.Sub(oldc.at).Seconds()
	ws := &WindowSnapshot{
		Seconds:    secs,
		Counters:   map[string]WindowCounter{},
		Histograms: map[string]WindowHistogram{},
	}
	rate := func(delta float64) float64 {
		if secs <= 0 {
			return 0
		}
		return delta / secs
	}
	for name, v := range newc.snap.Counters {
		d := v - oldc.snap.Counters[name] // absent in the old sample = registered mid-window, baseline 0
		if d < 0 {
			d = 0 // a restarted source behind a merge; never report negative traffic
		}
		ws.Counters[name] = WindowCounter{Delta: d, Rate: rate(float64(d))}
	}
	for name, h := range newc.snap.Histograms {
		oldh := oldc.snap.Histograms[name]
		wh := WindowHistogram{Count: h.Count - oldh.Count}
		if wh.Count < 0 {
			wh.Count = 0
		}
		wh.Rate = rate(float64(wh.Count))
		if wh.Count > 0 {
			wh.Mean = (h.Sum - oldh.Sum) / float64(wh.Count)
			buckets := diffBuckets(h.Buckets, oldh.Buckets)
			wh.P50 = bucketQuantile(buckets, wh.Count, 0.50)
			wh.P95 = bucketQuantile(buckets, wh.Count, 0.95)
			wh.P99 = bucketQuantile(buckets, wh.Count, 0.99)
		}
		ws.Histograms[name] = wh
	}
	return ws
}

// diffBuckets subtracts the old per-bucket counts from the new ones,
// matching buckets by upper edge (snapshots omit empty buckets, so the two
// lists need not align index-by-index).
func diffBuckets(newb, oldb []Bucket) []Bucket {
	old := make(map[float64]int64, len(oldb))
	for _, b := range oldb {
		old[b.Le] = b.Count
	}
	out := make([]Bucket, 0, len(newb))
	for _, b := range newb {
		d := b.Count - old[b.Le]
		if d < 0 {
			d = 0
		}
		out = append(out, Bucket{Le: b.Le, Count: d})
	}
	return out
}

// bucketQuantile interpolates the p-quantile from per-bucket (non-
// cumulative) counts, mirroring Histogram.Quantile: linear interpolation
// inside the bucket holding the target rank, overflow clamped to the last
// finite edge.
func bucketQuantile(buckets []Bucket, total int64, p float64) float64 {
	if total <= 0 || len(buckets) == 0 {
		return 0
	}
	rank := p * float64(total)
	cum := 0.0
	lastFinite := 0.0
	for _, b := range buckets {
		if b.Le < floatInf {
			lastFinite = b.Le
		}
	}
	lo := 0.0
	for _, b := range buckets {
		n := float64(b.Count)
		if n > 0 && cum+n >= rank {
			if b.Le >= floatInf {
				return lastFinite // overflow bucket: clamp like the cumulative path
			}
			frac := (rank - cum) / n
			return lo + frac*(b.Le-lo)
		}
		cum += n
		if b.Le < floatInf {
			lo = b.Le // empty buckets still tighten the interpolation interval
		}
	}
	return lastFinite
}
