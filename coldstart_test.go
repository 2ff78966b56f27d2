package shredder

import (
	"path/filepath"
	"sync"
	"testing"

	"shredder/internal/core"
	"shredder/internal/model"
	"shredder/internal/nn"
	"shredder/internal/obs"
	"shredder/internal/tensor"
)

// A cold start on a warm weight cache loads and does not recompute: the
// first forward passes a deployment runs are its first request's own, one
// through the edge half and one through the cloud half; the baseline
// accuracy is one test-set sweep whenever it is first asked for.
func TestColdStartRunsNoForwardPass(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Seed: 5, TrainN: 150, TestN: 40, Epochs: 1, WeightCacheDir: dir}
	warm, err := NewSystem("lenet", cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm.LearnNoiseWith(2, NoiseOptions{Epochs: 0.5})
	noisePath := filepath.Join(dir, "noise.gob")
	if err := warm.SaveNoise(noisePath); err != nil {
		t.Fatal(err)
	}

	// The cold start under test sees every pass through its network: the
	// profiler is attached where the network is built.
	prof := obs.NewProfiler(nil)
	bench, err := model.BenchmarkByName("lenet")
	if err != nil {
		t.Fatal(err)
	}
	build := bench.Spec.Build
	bench.Spec.Build = func(rng *tensor.RNG) *nn.Sequential {
		net := build(rng)
		net.SetProfiler(prof)
		return net
	}
	cfg.NoiseMode = core.ModeFitted // LoadNoise refits the stored collection
	sys, err := newSystem(bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadNoise(noisePath); err != nil {
		t.Fatal(err)
	}
	cloud, err := sys.ServeCloud("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	edge, err := sys.ConnectEdge(cloud.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	if table := prof.Table(); len(table) != 0 {
		t.Fatalf("cold start ran layer passes before its first request: %+v", table)
	}

	px, _ := sys.TestSample(0)
	if _, err := edge.Classify(px); err != nil {
		t.Fatal(err)
	}
	// One pass per half: every layer of the network ran in exactly one
	// plan step, once.
	table := prof.Table()
	for _, layer := range sys.pre.Net.Layers() {
		steps := 0
		for _, lp := range table {
			if nn.LabelMatches(lp.Layer, layer.Name()) {
				steps++
			}
		}
		if steps != 1 {
			t.Errorf("layer %s ran in %d profiled steps of the first request, want 1", layer.Name(), steps)
		}
	}
	for _, lp := range table {
		if lp.ForwardCalls != 1 || lp.BackwardCalls != 0 {
			t.Errorf("first request: step %s ran %d forward and %d backward passes, want 1 and 0",
				lp.Layer, lp.ForwardCalls, lp.BackwardCalls)
		}
	}

	// Sixteen goroutines asking for the baseline share one evaluation.
	prof.Reset()
	got := make([]float64, 16)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = sys.BaselineAccuracy()
		}(i)
	}
	wg.Wait()
	const sweep = 2 // ceil(40 test samples / the default batch of 32)
	swept := 0
	for _, lp := range prof.Table() { // Reset keeps the first request's steps, at zero
		if lp.ForwardCalls != 0 && lp.ForwardCalls != sweep {
			t.Errorf("BaselineAccuracy ×16: step %s ran %d forward passes, want one sweep of %d", lp.Layer, lp.ForwardCalls, sweep)
		}
		swept += int(lp.ForwardCalls)
	}
	if swept == 0 {
		t.Error("BaselineAccuracy ran no forward pass")
	}
	sys.DetachProfiler()
	want, err := model.Evaluate(sys.pre.Net, sys.pre.Test, sys.pre.Config.BatchSize)
	if err != nil {
		t.Fatal(err)
	}
	for i, acc := range got {
		if acc != want {
			t.Fatalf("goroutine %d: BaselineAccuracy %v, model.Evaluate %v", i, acc, want)
		}
	}
	if acc := warm.BaselineAccuracy(); acc != want {
		t.Fatalf("trained system's baseline %v, cached system's %v", acc, want)
	}
}
