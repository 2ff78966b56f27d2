// Benchmark timing a deployment's cold start on a warm weight cache — the
// sequence the benchmark's setup_s times: NewSystem, LoadNoise, ServeCloud,
// ConnectEdge and the first Classify — so that a change to start-up can be
// timed in alternating pairs without the benchmark harness. Two shapes:
// LeNet at its deep cut with stored noise, and SVHN at its shallow cut with
// fitted noise, which LoadNoise refits. Closing the deployment and a GC
// before each start are not timed.
package shredder

import (
	"path/filepath"
	"runtime"
	"testing"

	"shredder/internal/core"
)

func BenchmarkColdStart(b *testing.B) {
	for _, bc := range []struct {
		network, cut, mode string
	}{
		{"lenet", "conv2", core.ModeStored},
		{"svhn", "conv0", core.ModeFitted},
	} {
		b.Run(bc.network+"/"+bc.cut+"/"+bc.mode, func(b *testing.B) {
			dir := b.TempDir()
			cfg := Config{Cut: bc.cut, Seed: 5, TrainN: 48, TestN: 16, Epochs: 1, WeightCacheDir: dir}
			warm, err := NewSystem(bc.network, cfg)
			if err != nil {
				b.Fatal(err)
			}
			warm.LearnNoiseWith(2, NoiseOptions{Epochs: 0.5})
			noisePath := filepath.Join(dir, "noise.bin")
			if err := warm.SaveNoise(noisePath); err != nil {
				b.Fatal(err)
			}
			cfg.NoiseMode = bc.mode
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
				sys, err := NewSystem(bc.network, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := sys.LoadNoise(noisePath); err != nil {
					b.Fatal(err)
				}
				cloud, err := sys.ServeCloud("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				edge, err := sys.ConnectEdge(cloud.Addr)
				if err != nil {
					b.Fatal(err)
				}
				px, _ := sys.TestSample(0)
				if _, err := edge.Classify(px); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				edge.Close()
				cloud.Close()
				b.StartTimer()
			}
		})
	}
}
