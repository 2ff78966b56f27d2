// Benchmark pinning the cost of the observability layer on the serving hot
// path. The "disabled" variant is the default server — no registry, no
// spans — and must stay within noise of the pre-observability baseline
// (the nil-metric no-op contract: one predictable branch per would-be
// record). The "enabled" variant prices the full pipeline: counters,
// latency histograms, and a span per request.
package shredder

import (
	"testing"

	"shredder/internal/obs"
	"shredder/internal/splitrt"
)

func BenchmarkObsOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		benchServerThroughput(b, 1)
	})
	b.Run("enabled", func(b *testing.B) {
		benchServerThroughput(b, 1,
			splitrt.WithObservability(obs.NewRegistry(), obs.NewSpanRing(256)))
	})
}
