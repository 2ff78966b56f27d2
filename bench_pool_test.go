// Benchmark for the fleet-serving layer: concurrent workers pushing
// activations through a splitrt.Pool over loopback TCP. Three regimes:
//
//   - backends=1 — the pool as a thin wrapper over one server (its floor);
//   - backends=3 — round-robin over a uniform fleet;
//   - backends=3/slow1 — one backend carries injected latency, with and
//     without hedging. Unhedged, the slow backend owns the tail (p99 ≈ the
//     injected delay); hedged, the pool re-issues straggling calls to a
//     fast backend and p99 collapses back toward the uniform fleet's.
//
// The p50_ms/p99_ms metrics are end-to-end per-call latencies measured at
// the caller, not per-backend RTTs.
package shredder

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"shredder/internal/splitrt"
)

const benchPoolSlow = 20 * time.Millisecond

func benchPoolServe(b *testing.B, backends int, slowLast time.Duration, hedged bool) {
	pre, spl := lenetSplit(b)
	layer, err := pre.Spec.CutLayer("conv2")
	if err != nil {
		b.Fatal(err)
	}
	addrs := make([]string, backends)
	for i := 0; i < backends; i++ {
		var opts []splitrt.ServerOption
		if slowLast > 0 && i == backends-1 {
			opts = append(opts, splitrt.WithLatencyInjection(slowLast))
		}
		srv := splitrt.NewCloudServer(spl, layer, opts...)
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		addrs[i] = addr
	}
	var popts []splitrt.PoolOption
	if hedged {
		popts = append(popts, splitrt.WithHedging(0.9, time.Millisecond))
	}
	pool, err := splitrt.NewPool(spl, layer, nil, 1, addrs, popts...)
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()

	batch := pre.Test.Batches(1)[0]
	ctx := context.Background()
	// Prime every backend's latency histogram past the hedge-arming
	// threshold so the measured region hedges from its first call.
	warm := spl.Local(batch.Images)
	for i := 0; i < 20*backends; i++ {
		if _, err := pool.InferActivation(ctx, warm); err != nil {
			b.Fatal(err)
		}
	}

	const workers = 4
	durs := make([][]time.Duration, workers)
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		n := b.N / workers
		if w < b.N%workers {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			a := spl.Local(batch.Images) // private activation per worker
			durs[w] = make([]time.Duration, 0, n)
			for j := 0; j < n; j++ {
				start := time.Now()
				if _, err := pool.InferActivation(ctx, a); err != nil {
					b.Error(err)
					return
				}
				durs[w] = append(durs[w], time.Since(start))
			}
		}(w, n)
	}
	wg.Wait()
	b.StopTimer()

	var all []time.Duration
	for _, d := range durs {
		all = append(all, d...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) == 0 {
		return
	}
	q := func(p float64) float64 {
		i := int(p * float64(len(all)-1))
		return 1e3 * all[i].Seconds()
	}
	b.ReportMetric(q(0.50), "p50_ms")
	b.ReportMetric(q(0.99), "p99_ms")
	s := pool.Stats()
	b.ReportMetric(float64(s.Hedges), "hedges")
	b.ReportMetric(float64(s.HedgeWins), "hedge_wins")
}

func BenchmarkPoolServe(b *testing.B) {
	b.Run("backends=1", func(b *testing.B) {
		benchPoolServe(b, 1, 0, false)
	})
	b.Run("backends=3", func(b *testing.B) {
		benchPoolServe(b, 3, 0, false)
	})
	b.Run("backends=3/slow1", func(b *testing.B) {
		benchPoolServe(b, 3, benchPoolSlow, false)
	})
	b.Run("backends=3/slow1/hedged", func(b *testing.B) {
		benchPoolServe(b, 3, benchPoolSlow, true)
	})
}
