package shredder

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"shredder/internal/core"
	"shredder/internal/data"
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
	noisePath := filepath.Join(dir, "noise.bin")
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

// countingGenerator counts the samples rendered through the generator it
// wraps.
type countingGenerator struct {
	data.Generator
	rendered atomic.Int64
}

func (g *countingGenerator) Render(img *tensor.Tensor, label int, rng *tensor.RNG) {
	g.rendered.Add(1)
	g.Generator.Render(img, label, rng)
}

// countingBenchmark returns the named benchmark with its dataset behind a
// countingGenerator.
func countingBenchmark(t *testing.T, network string) (model.Benchmark, *countingGenerator) {
	t.Helper()
	bench, err := model.BenchmarkByName(network)
	if err != nil {
		t.Fatal(err)
	}
	gen := &countingGenerator{Generator: bench.Spec.Dataset}
	bench.Spec.Dataset = gen
	return bench, gen
}

// A cold start on a warm weight cache renders only the pixels it is asked
// for: none to come up and serve, one sample per TestSample — and it never
// holds, or allocates the like of, the dataset a serving process does not
// read.
func TestColdStartRendersOneSample(t *testing.T) {
	dir := t.TempDir()
	// LeNet's default sizes: the weights a cold start must read are a fixed
	// cost, and this is the dataset they are small beside.
	cfg := Config{Seed: 5, TrainN: 2400, TestN: 600, Epochs: 1, WeightCacheDir: dir}
	warm, err := NewSystem("lenet", cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm.LearnNoiseWith(2, NoiseOptions{Epochs: 0.05})
	noisePath := filepath.Join(dir, "noise.bin")
	if err := warm.SaveNoise(noisePath); err != nil {
		t.Fatal(err)
	}

	bench, gen := countingBenchmark(t, "lenet")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
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
	if n := gen.rendered.Load(); n != 0 {
		t.Fatalf("cold start rendered %d samples before anything asked for one", n)
	}
	if n := sys.TestSize(); n != cfg.TestN || gen.rendered.Load() != 0 {
		t.Fatalf("TestSize() = %d (want %d) after %d renders (want 0)", n, cfg.TestN, gen.rendered.Load())
	}
	px, label := sys.TestSample(0)
	if n := gen.rendered.Load(); n != 1 {
		t.Fatalf("TestSample(0) rendered %d samples, want 1", n)
	}
	if _, err := edge.Classify(px); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := gen.rendered.Load(); n != 1 || sys.NoiseSource() == nil {
		t.Fatalf("serving rendered samples: %d in all, want 1", n)
	}
	datasetBytes := uint64(cfg.TrainN+cfg.TestN) * uint64(len(px)) * 8
	if grew := after.TotalAlloc - before.TotalAlloc; grew > datasetBytes/4 {
		t.Errorf("cold start allocated %d bytes, want under a quarter of the dataset's %d", grew, datasetBytes)
	}

	// The one sample is the materialised split's, and so is what it serves.
	if wantPx, wantLabel := warm.pre.Test.Image(0), warm.pre.Test.Labels[0]; label != wantLabel ||
		!tensor.Equal(tensor.From(px, sys.InputShape()...), wantPx) {
		t.Fatal("TestSample(0) of the cold start differs from the trained system's test split")
	}
	if want, err := warm.ClassifyBaseline(px); err != nil {
		t.Fatal(err)
	} else if got, err := sys.ClassifyBaseline(px); err != nil || got != want {
		t.Fatalf("cold start classifies its sample as %d (%v), the trained system as %d", got, err, want)
	}
}

// For every benchmark's generator, each TestSample of a lazily opened System
// is the row of the test split model.TrainCached materialises, bit for bit.
func TestLazyTestSampleEqualsMaterialisedSplit(t *testing.T) {
	for _, network := range Networks() {
		dir := t.TempDir()
		cfg := Config{Seed: 3, TrainN: 8, TestN: 6, Epochs: 1, WeightCacheDir: dir}
		if _, err := NewSystem(network, cfg); err != nil {
			t.Fatal(err)
		}
		bench, gen := countingBenchmark(t, network)
		sys, err := newSystem(bench, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := model.TrainCached(bench.Spec, model.TrainConfig{
			TrainN: cfg.TrainN, TestN: cfg.TestN, Epochs: cfg.Epochs, Seed: cfg.Seed}, dir)
		if err != nil {
			t.Fatal(err)
		}
		gen.rendered.Store(0)
		for i := 0; i < sys.TestSize(); i++ {
			px, label := sys.TestSample(i)
			if label != want.Test.Labels[i] || !tensor.Equal(tensor.From(px, sys.InputShape()...), want.Test.Image(i)) {
				t.Fatalf("%s: TestSample(%d) differs from TrainCached's test split", network, i)
			}
		}
		if n := gen.rendered.Load(); n != int64(cfg.TestN) || sys.pre.Test != nil {
			t.Fatalf("%s: %d TestSample calls rendered %d samples (materialised: %v)", network, cfg.TestN, n, sys.pre.Test != nil)
		}
	}
}

// Whoever first needs a whole split materialises both, once: the first
// LearnNoiseWith beside fifteen BaselineAccuracy calls, then sixteen
// goroutines of Evaluate, BaselineAccuracy and the attacks.
func TestFirstUsersMaterialiseOnce(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Seed: 7, TrainN: 64, TestN: 32, Epochs: 1, WeightCacheDir: dir}
	if _, err := NewSystem("lenet", cfg); err != nil {
		t.Fatal(err)
	}
	bench, gen := countingBenchmark(t, "lenet")
	sys, err := newSystem(bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	acc := make([]float64, 16)
	for i := range acc {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == 0 {
				sys.LearnNoiseWith(1, NoiseOptions{Epochs: 0.5})
				return
			}
			acc[i] = sys.BaselineAccuracy()
		}(i)
	}
	wg.Wait()
	if n := gen.rendered.Load(); n != int64(cfg.TrainN+cfg.TestN) {
		t.Fatalf("first users rendered %d samples, want each of the %d once", n, cfg.TrainN+cfg.TestN)
	}
	reports := make([]Report, 16)
	for i := range reports {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 4 {
			case 0:
				acc[i] = sys.BaselineAccuracy()
			case 1:
				if _, err := sys.GalleryAttack(4); err != nil {
					t.Error(err)
				}
			case 2:
				if _, err := sys.AttackResistance(1, 2); err != nil {
					t.Error(err)
				}
			}
			reports[i] = sys.Evaluate()
		}(i)
	}
	wg.Wait()
	if n := gen.rendered.Load(); n != int64(cfg.TrainN+cfg.TestN) {
		t.Fatalf("later users rendered again: %d samples in all, want %d", n, cfg.TrainN+cfg.TestN)
	}
	for i, rep := range reports {
		if rep != reports[0] || rep.BaselineAcc != acc[1] {
			t.Fatalf("goroutine %d: report %+v, goroutine 0's %+v, baseline %v", i, rep, reports[0], acc[1])
		}
	}
}

// A weight-cache entry whose normalisation the dataset does not reproduce
// serves — nothing on the serving path renders a split — and refuses, with
// the typed error, whatever would have computed on other pixels than the
// weights were trained on.
func TestStaleNormalisationSurfacesAtMaterialisation(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Seed: 2, TrainN: 48, TestN: 16, Epochs: 1, WeightCacheDir: dir}
	warm, err := NewSystem("lenet", cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm.LearnNoiseWith(1, NoiseOptions{Epochs: 0.5})
	noisePath := filepath.Join(dir, "noise.bin")
	if err := warm.SaveNoise(noisePath); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "lenet-*.ckpt"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache entries %v, %v", entries, err)
	}
	stale := nn.InputNorm{Mean: warm.pre.Mean + 0.5, Std: warm.pre.Std}
	if err := nn.SaveFile(warm.pre.Net, stale, entries[0]); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem("lenet", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadNoise(noisePath); err != nil {
		t.Fatal(err)
	}
	px, _ := sys.TestSample(0)
	if _, err := sys.Classify(px); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.GalleryAttack(2); !errors.Is(err, model.ErrNormalizationMismatch) {
		t.Fatalf("GalleryAttack: %v, want ErrNormalizationMismatch", err)
	}
	if _, err := sys.AttackResistance(1, 1); !errors.Is(err, model.ErrNormalizationMismatch) {
		t.Fatalf("AttackResistance: %v, want ErrNormalizationMismatch", err)
	}
	for name, call := range map[string]func(){
		"Evaluate":         func() { sys.Evaluate() },
		"BaselineAccuracy": func() { sys.BaselineAccuracy() },
		"LearnNoise":       func() { sys.LearnNoise(1) },
	} {
		func() {
			defer func() {
				if err, _ := recover().(error); !errors.Is(err, model.ErrNormalizationMismatch) {
					t.Errorf("%s: panic value %v, want ErrNormalizationMismatch", name, err)
				}
			}()
			call()
		}()
	}
}

// Sizes and indices from outside come back as an error or a panic that
// names them, not as a trace from inside the dataset or the tensor package.
func TestBadSizesAndIndicesAreReported(t *testing.T) {
	for name, cfg := range map[string]Config{
		"TrainN": {TrainN: -5},
		"TestN":  {TestN: -1},
		"Epochs": {Epochs: -3},
	} {
		for _, cacheDir := range []string{"", t.TempDir()} {
			cfg.WeightCacheDir = cacheDir
			if sys, err := NewSystem("lenet", cfg); err == nil || sys != nil {
				t.Errorf("negative %s (cache %q): NewSystem returned %v, %v", name, cacheDir, sys, err)
			}
		}
	}
	sys, err := NewSystem("lenet", Config{TrainN: 16, TestN: 5, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{-1, 5, 1 << 40} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, fmt.Sprintf("TestSample(%d)", i)) || !strings.Contains(msg, "[0, 5)") {
					t.Errorf("TestSample(%d): panic %q does not name the index and the bound", i, msg)
				}
			}()
			sys.TestSample(i)
		}()
	}
	if _, label := sys.TestSample(4); label < 0 || label >= sys.Classes() {
		t.Errorf("TestSample(4): label %d", label)
	}
}
