// Benchmark for the audit-ledger overhead on the serving hot path: a
// single loopback CloudServer at LeNet's conv2 cut, concurrent workers
// measuring end-to-end per-call latency under four regimes:
//
//   - audit=off — no Auditor attached: the baseline the enabled paths are
//     judged against. Enabling the audit subsystem must leave this path
//     untouched (the server takes one nil check per request).
//   - audit=mem — Merkle batching into an in-memory ledger. The hot path
//     pays one Record marshal + mutex append; hashing and anchoring run
//     on the Auditor's background goroutine.
//   - audit=file — the append-only hash-chained file ledger with real
//     fsync per anchor. Anchor I/O is off the request path, so serving
//     latency should stay near the mem-ledger numbers even though each
//     anchor costs a disk sync.
//   - audit=slow-anchor — a 2ms mock-latency ledger. Batching must absorb
//     the anchor latency: records coalesce behind the in-flight anchor
//     (sched-style timer/full sealing) instead of stalling requests.
//
// The p50_ms/p99_ms metrics are per-call latencies at the caller;
// batches/records report how much audit work the run generated.
package shredder

import (
	"context"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"shredder/internal/audit"
	"shredder/internal/splitrt"
)

// benchAuditLedger builds the ledger for one benchmark regime.
func benchAuditLedger(b *testing.B, mode string) audit.Ledger {
	switch mode {
	case "mem":
		return audit.NewMemLedger()
	case "file":
		led, err := audit.OpenFileLedger(filepath.Join(b.TempDir(), "audit.ledger"))
		if err != nil {
			b.Fatal(err)
		}
		return led
	case "slow-anchor":
		return audit.WithLatency(audit.NewMemLedger(), 2*time.Millisecond)
	default:
		b.Fatalf("unknown ledger mode %q", mode)
		return nil
	}
}

func benchAuditServe(b *testing.B, mode string) {
	pre, spl := lenetSplit(b)
	layer, err := pre.Spec.CutLayer("conv2")
	if err != nil {
		b.Fatal(err)
	}
	var aud *audit.Auditor
	var sopts []splitrt.ServerOption
	if mode != "off" {
		aud = audit.New(audit.Options{Ledger: benchAuditLedger(b, mode)})
		sopts = append(sopts, splitrt.WithAudit(aud))
	}
	srv := splitrt.NewCloudServer(spl, layer, sopts...)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	pool, err := splitrt.NewPool(spl, layer, nil, 1, []string{addr})
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()

	batch := pre.Test.Batches(1)[0]
	ctx := context.Background()
	warm := spl.Local(batch.Images)
	for i := 0; i < 20; i++ {
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
	if aud != nil {
		aud.Flush()
		sum := aud.Summarize()
		b.ReportMetric(float64(sum.Records), "records")
		b.ReportMetric(float64(sum.Batches), "batches")
	}
}

func BenchmarkAuditOverhead(b *testing.B) {
	for _, mode := range []string{"off", "mem", "file", "slow-anchor"} {
		b.Run("audit="+mode, func(b *testing.B) {
			benchAuditServe(b, mode)
		})
	}
}
