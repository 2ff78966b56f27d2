// Edgecloud: the full deployment story of the paper's Figure 2 on a
// loopback TCP connection. A cloud process hosts the remote part R of the
// network; the edge runs the local part L, adds a sampled noise tensor,
// and ships only the noisy activation across the wire. The raw image never
// leaves the edge, and the wire carries strictly less information about it
// than the original activation would.
//
// With -clients > 1 the example fans the workload out over several
// concurrent edge connections against a micro-batching cloud server: the
// server coalesces overlapping requests into one [N, ...] forward pass and
// reports how much it managed to batch at the end. The predictions are
// bitwise identical either way — batching is a pure throughput knob.
//
// With -backends > 1 the example instead serves the cloud part from a
// whole fleet: N independent servers, one of them optionally slowed with
// -slow-one, and a splitrt.Pool on the edge balancing over them with
// hedged requests armed. The fleet is as invisible to correctness as
// batching — same predictions, with the pool's reroute/hedge counters in
// the summary.
//
// The whole run shares one obs metrics registry: the server, the batching
// scheduler, and every edge client register their counters and histograms
// in it, and the end-of-run summary is a snapshot of that registry. Pass
// -debug-addr to also serve it live at /debug/metrics (with request spans
// at /debug/spans) while the example runs.
//
// Run with:
//
//	go run ./examples/edgecloud [-net lenet] [-n 24] [-clients 4] [-debug-addr 127.0.0.1:8080] [-quiet]
//	go run ./examples/edgecloud -backends 3 -slow-one 40ms [-n 24] [-quiet]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"time"

	"shredder"
	"shredder/internal/obs"
	"shredder/internal/sched"
	"shredder/internal/splitrt"
)

func main() {
	log.SetFlags(0)
	net := flag.String("net", "lenet", "benchmark network")
	n := flag.Int("n", 24, "test samples to classify remotely")
	clients := flag.Int("clients", 1, "concurrent edge connections (>1 enables server micro-batching)")
	backends := flag.Int("backends", 1, "cloud servers in the fleet (>1 serves through a splitrt.Pool)")
	slowOne := flag.Duration("slow-one", 0, "with -backends > 1, inject this latency into one backend to show hedging")
	debugAddr := flag.String("debug-addr", "", "serve live /debug/metrics and /debug/spans on this HTTP address")
	quiet := flag.Bool("quiet", false, "suppress progress output; print only the final summary")
	flag.Parse()
	if *clients < 1 {
		*clients = 1
	}
	if *backends < 1 {
		*backends = 1
	}

	// One registry for the whole deployment: server, scheduler, and every
	// client fold their metrics into it, so the summary below (and the live
	// debug endpoint) sees the full picture in one snapshot.
	reg := obs.NewRegistry()
	spans := obs.NewSpanRing(256)

	var progress io.Writer = os.Stderr
	if *quiet {
		progress = io.Discard
	}

	fmt.Fprintf(progress, "pre-training %s and learning noise...\n", *net)
	sys, err := shredder.NewSystem(*net, shredder.Config{Seed: 1, Progress: progress})
	if err != nil {
		log.Fatal(err)
	}
	sys.LearnNoise(8)

	// "Cloud": hosts only the layers after the cutting point. It never
	// sees inputs, only noisy activations. With several edge clients we
	// also turn on the cross-connection micro-batching scheduler; with
	// -backends > 1 we instead stand up a fleet of independent servers.
	addrs := make([]string, 0, *backends)
	var cloud *shredder.CloudHandle
	for i := 0; i < *backends; i++ {
		opts := []splitrt.ServerOption{splitrt.WithObservability(reg, spans)}
		if *backends == 1 && *clients > 1 {
			opts = append(opts, splitrt.WithBatching(sched.Options{
				MaxBatch: *clients, MaxDelay: 2 * time.Millisecond,
			}))
		}
		// Every server folds into the shared registry, so the first
		// backend's /debug/metrics already covers the whole run.
		if *debugAddr != "" && i == 0 {
			opts = append(opts, splitrt.WithDebugServer(*debugAddr))
		}
		if *backends > 1 && *slowOne > 0 && i == *backends-1 {
			opts = append(opts, splitrt.WithLatencyInjection(*slowOne))
		}
		srv, err := sys.ServeCloud("127.0.0.1:0", opts...)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr)
		if i == 0 {
			cloud = srv
		}
	}
	if *backends > 1 {
		fmt.Fprintf(progress, "cloud part serving on a %d-backend fleet (%d edge client(s))\n", *backends, *clients)
		if *slowOne > 0 {
			fmt.Fprintf(progress, "backend %s carries +%s injected latency\n", addrs[*backends-1], *slowOne)
		}
	} else {
		fmt.Fprintf(progress, "cloud part serving on %s (%d edge client(s))\n", cloud.Addr, *clients)
	}
	if d := cloud.DebugAddr(); d != "" {
		fmt.Fprintf(progress, "debug endpoint on http://%s/debug/metrics\n", d)
	}

	// With a fleet, the edge routes through a splitrt.Pool instead of a
	// single connection: round-robin balancing, and — when one backend is
	// slowed — hedged requests so the tail pays a fast backend's latency.
	var pool *shredder.PoolHandle
	if *backends > 1 {
		popts := []splitrt.PoolOption{splitrt.WithMetrics(reg)}
		if *slowOne > 0 {
			popts = append(popts, splitrt.WithHedging(0.9, 5*time.Millisecond))
		}
		var err error
		pool, err = sys.ConnectPool(addrs, popts...)
		if err != nil {
			log.Fatal(err)
		}
		defer pool.Close()
		if *slowOne > 0 {
			// Hedging arms from live per-backend latency quantiles, which
			// need a handful of observations each; prime them so the
			// measured run below hedges from the first sample.
			fmt.Fprintf(progress, "warming per-backend latency stats for hedging...\n")
			pixels, _ := sys.TestSample(0)
			for i := 0; i < 20**backends; i++ {
				if _, err := pool.Classify(pixels); err != nil {
					log.Fatal(err)
				}
			}
		}
	}

	// "Edge": each client runs the local layers and the noise sampler on
	// its own connection; the cloud coalesces whatever overlaps.
	type outcome struct {
		idx, pred, label int
	}
	results := make([]outcome, 0, *n)
	var (
		mu    sync.Mutex
		wg    sync.WaitGroup
		fatal error
	)
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// The pool is one shared, concurrency-safe fleet client; in
			// single-backend mode each worker dials its own connection.
			classify := func(pixels []float64) (int, error) { return pool.Classify(pixels) }
			if pool == nil {
				edge, err := sys.ConnectEdge(cloud.Addr, splitrt.WithMetrics(reg))
				if err != nil {
					mu.Lock()
					fatal = err
					mu.Unlock()
					return
				}
				defer edge.Close()
				classify = edge.Classify
			}
			// Client c handles samples c, c+clients, c+2*clients, ...
			for i := c; i < *n && i < sys.TestSize(); i += *clients {
				pixels, label := sys.TestSample(i)
				pred, err := classify(pixels)
				if err != nil {
					mu.Lock()
					fatal = err
					mu.Unlock()
					return
				}
				mu.Lock()
				results = append(results, outcome{i, pred, label})
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if fatal != nil {
		log.Fatal(fatal)
	}

	correct := 0
	for i := 0; i < *n && i < sys.TestSize(); i++ {
		for _, r := range results {
			if r.idx != i {
				continue
			}
			mark := " "
			if r.pred == r.label {
				correct++
				mark = "✓"
			}
			fmt.Fprintf(progress, "  sample %2d: cloud predicted %2d, label %2d %s\n", r.idx, r.pred, r.label, mark)
		}
	}
	fmt.Printf("remote accuracy with noise: %d/%d (baseline %.2f%%)\n",
		correct, len(results), 100*sys.BaselineAccuracy())

	// The summary is a straight read of the shared registry — the same
	// numbers /debug/metrics serves.
	snap := reg.Snapshot()
	if pool != nil {
		fmt.Printf("fleet: %d pool requests, %d reroutes, %d hedges (%d won by the hedge)\n",
			snap.Counters["pool.requests"], snap.Counters["pool.reroutes"],
			snap.Counters["pool.hedges"], snap.Counters["pool.hedge_wins"])
		for _, b := range pool.Stats().Backends {
			rtt := snap.Histograms["pool.backend."+b.Addr+".rtt_seconds"]
			fmt.Printf("  backend %s: %-8s %3d requests, %d errors; rtt p50 %.1fms p99 %.1fms\n",
				b.Addr, b.State, b.Requests, b.Errors, 1e3*rtt.P50, 1e3*rtt.P99)
		}
	} else {
		rtt := snap.Histograms["client.rtt_seconds"]
		fmt.Printf("wire: %d requests, %d bytes up, %d bytes down; rtt p50 %.1fms p99 %.1fms\n",
			snap.Counters["client.requests"],
			snap.Counters["client.bytes_sent"], snap.Counters["client.bytes_received"],
			1e3*rtt.P50, 1e3*rtt.P99)
	}
	if stats, ok := cloud.BatchStats(); ok {
		fmt.Printf("micro-batching: %d requests served in %d batches (mean occupancy %.2f, mean queue delay %s)\n",
			stats.Submitted, stats.Batches, stats.MeanOccupancy, stats.MeanQueueDelay)
	}
	fmt.Println("every byte that crossed the wire was a noisy activation — no raw pixels.")
}
