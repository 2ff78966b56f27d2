// Benchmark pinning the cost of the per-layer profiler on the serving hot
// path. The "disabled" variant is the default server — no profiler attached
// — and must stay within noise of the pre-profiler baseline: the per-range
// check is a single atomic load plus branch. The "enabled" variant prices
// full per-layer timing (two clock reads and an ObserveLayer per layer per
// pass) feeding registry histograms.
package shredder

import (
	"testing"

	"shredder/internal/obs"
)

func BenchmarkProfileOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		benchServerThroughput(b, 1)
	})
	b.Run("enabled", func(b *testing.B) {
		_, spl := lenetSplit(b)
		// The fixture split is shared across benchmarks: detach on exit so
		// later variants run unobserved.
		spl.Net.SetProfiler(obs.NewProfiler(obs.NewRegistry()))
		defer spl.Net.SetProfiler(nil)
		benchServerThroughput(b, 1)
	})
}
