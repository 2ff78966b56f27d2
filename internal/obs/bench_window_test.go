package obs

import (
	"testing"
	"time"
)

// BenchmarkWindowOverhead pins the window layer's design claim: attaching
// a sliding window (with its background ticker advancing every bucket)
// adds nothing to the metric hot path, because window aggregates are
// derived from cumulative snapshots at bucket boundaries rather than from
// a second per-observation write path. The windowed variant must stay
// within noise of cumulative-only.
func BenchmarkWindowOverhead(b *testing.B) {
	run := func(b *testing.B, windowed bool) {
		reg := NewRegistry()
		c := reg.Counter("bench.requests")
		h := reg.Histogram("bench.latency_seconds")
		if windowed {
			// An aggressively short bucket: the ticker snapshots the registry
			// hundreds of times over the benchmark, the worst case for any
			// hot-path interference the design is supposed to rule out.
			w := NewWindows(reg, WindowOptions{Bucket: time.Millisecond, Buckets: 8})
			stop := w.Start()
			defer stop()
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc()
				h.Observe(0.0001)
			}
		})
	}
	b.Run("cumulative-only", func(b *testing.B) { run(b, false) })
	b.Run("windowed", func(b *testing.B) { run(b, true) })
}
