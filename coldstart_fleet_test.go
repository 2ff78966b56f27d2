package shredder

import (
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"shredder/internal/audit"
	"shredder/internal/core"
	"shredder/internal/nn"
	"shredder/internal/race"
	"shredder/internal/sched"
	"shredder/internal/splitrt"
)

// fleetColdStartObjects and fleetColdStartBytes are runtime.MemStats.Mallocs
// and TotalAlloc over one start-up of the fleet below, the minimum of five,
// read at the commit that made a warm start build the network's shapes only
// (seeding the weights it then loaded cost the build RNG's source, ~5 KB:
// 1108 objects, 3 831 880 bytes; with gob on the two files a start reads,
// 5130 objects, 5 019 000 bytes). The objects fell 1101 → 1085 when a
// float32 array's shape went inline in its header, as a float64 one's was.
const (
	fleetColdStartObjects = 1085
	fleetColdStartBytes   = 3826640
)

// The benchmark's fleet_svhn_q8 start-up — a System on a warm weight cache,
// fitted noise, two float32 batched audited observed servers, a pool, a
// gateway, an edge on the 8-bit wire and one classified sample — allocates no
// more objects and no more bytes than it did, and leaves no goroutine behind
// once closed.
// setup_s times this sequence at a few ms, inside the host's jitter; the
// counts are the part of "the cold start does no more work" a test can hold
// exactly.
func TestFleetColdStartObjectCount(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector makes sync.Pool drop entries: object counts are not the program's")
	}
	dir := t.TempDir()
	cfg := Config{Cut: "conv0", Seed: 5, TrainN: 48, TestN: 16, Epochs: 1, WeightCacheDir: dir}
	warm, err := NewSystem("svhn", cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm.LearnNoiseWith(2, NoiseOptions{Epochs: 0.5})
	noisePath := filepath.Join(dir, "noise.bin")
	if err := warm.SaveNoise(noisePath); err != nil {
		t.Fatal(err)
	}
	cfg.NoiseMode = core.ModeFitted

	start := func() (objects, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sys, err := NewSystem("svhn", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadNoise(noisePath); err != nil {
			t.Fatal(err)
		}
		var addrs []string
		for i := 0; i < 2; i++ {
			h, err := sys.ServeCloud("127.0.0.1:0",
				splitrt.WithDtype(nn.Float32),
				splitrt.WithBatching(sched.Options{MaxBatch: 8, MaxDelay: time.Millisecond}),
				splitrt.WithAudit(audit.New(audit.Options{})),
				splitrt.WithObservability(nil, nil))
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			addrs = append(addrs, h.Addr)
		}
		pool, err := sys.ConnectPool(addrs)
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		gw := splitrt.NewGateway(pool.Pool())
		addr, err := gw.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer gw.Close()
		edge, err := sys.ConnectEdge(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer edge.Close()
		if err := edge.SetWireQuantization(8); err != nil {
			t.Fatal(err)
		}
		px, _ := sys.TestSample(0)
		if _, err := edge.Classify(px); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}

	goroutines := runtime.NumGoroutine()
	least, leastBytes := ^uint64(0), ^uint64(0)
	for i := 0; i < 5; i++ {
		objects, bytes := start()
		least, leastBytes = min(least, objects), min(leastBytes, bytes)
	}
	if limit := uint64(fleetColdStartObjects + fleetColdStartObjects/100); least > limit {
		t.Errorf("fleet cold start allocated %d objects (least of five), want at most %d (%d + 1%%)",
			least, limit, fleetColdStartObjects)
	}
	if limit := uint64(fleetColdStartBytes + fleetColdStartBytes/100); leastBytes > limit {
		t.Errorf("fleet cold start allocated %d bytes (least of five), want at most %d (%d + 1%%)",
			leastBytes, limit, fleetColdStartBytes)
	}
	t.Logf("fleet cold start: %d objects, %d bytes", least, leastBytes)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after Close, %d before the first start", n, goroutines)
	}
}
