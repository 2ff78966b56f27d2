package obs

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

// TestHistogramEmptyQuantiles pins the zero-observation edge: every
// quantile of an empty histogram is 0 — never NaN — and the snapshot (whose
// JSON encoding would fail outright on a NaN) marshals cleanly.
func TestHistogramEmptyQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("empty", 0.001, 0.01, 0.1)
	for _, p := range []float64{0.50, 0.95, 0.99} {
		q := h.Quantile(p)
		if math.IsNaN(q) || q != 0 {
			t.Fatalf("empty histogram p%g = %v, want 0", 100*p, q)
		}
	}
	snap := reg.Snapshot()
	hs := snap.Histograms["empty"]
	if hs.Count != 0 || hs.Sum != 0 || hs.P50 != 0 || hs.P95 != 0 || hs.P99 != 0 {
		t.Fatalf("empty histogram snapshot not all-zero: %+v", hs)
	}
	if len(hs.Buckets) != 0 {
		t.Fatalf("empty histogram has buckets: %+v", hs.Buckets)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("empty-histogram snapshot does not marshal: %v", err)
	}
}

// TestHistogramOverflowBucket pins the +Inf overflow edge: ranks landing in
// the overflow bucket clamp to the last finite bound (not +Inf, not NaN),
// ranks below it still interpolate inside their finite bucket, and the
// snapshot exposes the overflow bucket with Le = +Inf through JSON.
func TestHistogramOverflowBucket(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("ovf", 1, 2)
	// 10 observations in (1,2], 90 in the overflow bucket.
	for i := 0; i < 10; i++ {
		h.Observe(1.5)
	}
	for i := 0; i < 90; i++ {
		h.Observe(50)
	}
	// p5 (rank 5 of 100) lands inside the finite (1,2] bucket: interpolated
	// strictly between the edges.
	if q := h.Quantile(0.05); !(q > 1 && q < 2) {
		t.Fatalf("p5 = %v, want interpolation inside (1,2)", q)
	}
	// p50 and p99 land in the overflow bucket: clamped to the last bound.
	for _, p := range []float64{0.50, 0.99} {
		q := h.Quantile(p)
		if math.IsNaN(q) || math.IsInf(q, 0) || q != 2 {
			t.Fatalf("overflow p%g = %v, want clamp to 2", 100*p, q)
		}
	}

	snap := reg.Snapshot()
	hs := snap.Histograms["ovf"]
	if hs.Count != 100 || len(hs.Buckets) != 2 {
		t.Fatalf("overflow snapshot: %+v", hs)
	}
	if hs.Buckets[0].Le != 2 || hs.Buckets[0].Count != 10 {
		t.Fatalf("finite bucket: %+v", hs.Buckets[0])
	}
	if !math.IsInf(hs.Buckets[1].Le, 1) || hs.Buckets[1].Count != 90 {
		t.Fatalf("overflow bucket: %+v", hs.Buckets[1])
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("overflow snapshot does not marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if bs := back.Histograms["ovf"].Buckets; !math.IsInf(bs[1].Le, 1) {
		t.Fatalf("overflow edge lost in JSON round trip: %+v", bs)
	}
}

// TestSpanRingConcurrent runs several recorders against one small ring with
// eviction constantly in flight while pollers snapshot and read Total (run
// under -race). Invariants checked live: Total never goes backwards, a
// snapshot never exceeds capacity, and within any snapshot each writer's
// spans appear oldest-first (per-writer IDs strictly increasing — Record
// order is preserved by the ring).
func TestSpanRingConcurrent(t *testing.T) {
	const capacity, writers, per = 64, 4, 500
	ring := NewSpanRing(capacity)

	done := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		var lastTotal uint64
		for {
			select {
			case <-done:
				return
			default:
			}
			total := ring.Total()
			if total < lastTotal {
				t.Errorf("Total went backwards: %d -> %d", lastTotal, total)
				return
			}
			lastTotal = total
			snap := ring.Snapshot()
			if len(snap) > capacity {
				t.Errorf("snapshot holds %d spans, capacity %d", len(snap), capacity)
				return
			}
			if !perWriterOrdered(snap, writers) {
				t.Errorf("snapshot not oldest-first per writer: %+v", snap)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ring.Record(Span{
					Name:  "s",
					Trace: NewTraceID(),
					ID:    uint64(w)*1_000_000 + uint64(i) + 1,
					Dur:   time.Microsecond,
				}, nil, nil)
			}
		}(w)
	}
	wg.Wait()
	close(done)
	pollWG.Wait()

	if got := ring.Total(); got != writers*per {
		t.Fatalf("Total = %d, want %d", got, writers*per)
	}
	final := ring.Snapshot()
	if len(final) != capacity {
		t.Fatalf("final snapshot holds %d spans, want full capacity %d", len(final), capacity)
	}
	if !perWriterOrdered(final, writers) {
		t.Fatalf("final snapshot not oldest-first: %+v", final)
	}
	// The ring keeps the newest spans: every writer's tail record (its
	// highest ID) cannot have been evicted by older ones, so the very last
	// batch of IDs must be represented.
	maxID := uint64(0)
	for _, s := range final {
		if s.ID > maxID {
			maxID = s.ID
		}
	}
	if maxID%1_000_000 != per {
		t.Fatalf("newest retained span has ID %d, want some writer's final record", maxID)
	}
}

// perWriterOrdered reports whether, for each writer, the span IDs appear in
// strictly increasing order — the oldest-first guarantee projected onto one
// writer's subsequence.
func perWriterOrdered(spans []Span, writers int) bool {
	last := make([]uint64, writers)
	for _, s := range spans {
		w := int(s.ID / 1_000_000)
		if w < 0 || w >= writers {
			return false
		}
		if s.ID <= last[w] {
			return false
		}
		last[w] = s.ID
	}
	return true
}
