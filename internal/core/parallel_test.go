package core

// Tests for the reentrant training path: parallel Collect must be
// byte-identical to sequential Collect, and many TrainNoise runs must be
// able to share one Split concurrently (the -race CI gate enforces the
// absence of data races; these tests also pin determinism).

import (
	"sync"
	"testing"

	"shredder/internal/data"
	"shredder/internal/nn"
	"shredder/internal/tensor"
)

// dropoutSplit builds an untrained network whose remote part contains a
// dropout layer, so concurrent training runs exercise the per-tape RNG
// streams, plus a small synthetic dataset. TrainNoise never updates
// weights, so pre-training is unnecessary for determinism tests.
func dropoutSplit(t *testing.T) (*Split, *data.Dataset) {
	t.Helper()
	net := nn.NewSequential("droptest",
		nn.NewConv2D("conv0", 1, 4, 3, 3, 1, 1, tensor.NewRNG(11)),
		nn.NewReLU("relu0"),
		nn.NewMaxPool2D("pool0", 2, 2),
		nn.NewDropout("drop0", 0.3, tensor.NewRNG(12)),
		nn.NewFlatten("flat"),
		nn.NewLinear("fc", 4*5*5, 4, tensor.NewRNG(13)),
	)
	split, err := NewSplit(net, "relu0", []int{1, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(14)
	n := 64
	images := rng.FillNormal(tensor.New(n, 1, 10, 10), 0, 1)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(4)
	}
	ds := &data.Dataset{Name: "synth", Classes: 4, Images: images, Labels: labels}
	return split, ds
}

func collectCfg() NoiseConfig {
	return NoiseConfig{Scale: 1.5, Lambda: 0.01, PrivacyTarget: 3, Epochs: 2, Seed: 400}
}

// TestCollectParallelMatchesSequential is the determinism contract of the
// parallel collection trainer: workers=4 must produce member-by-member
// bitwise-identical tensors and InVivo values to workers=1.
func TestCollectParallelMatchesSequential(t *testing.T) {
	split, ds := dropoutSplit(t)
	const count = 6

	seq := Collect(split, ds, collectCfg(), count, 1)
	par := Collect(split, ds, collectCfg(), count, 4)

	if seq.Len() != count || par.Len() != count {
		t.Fatalf("collected %d sequential / %d parallel members, want %d", seq.Len(), par.Len(), count)
	}
	for i := 0; i < count; i++ {
		if !tensor.Equal(seq.Members[i], par.Members[i]) {
			t.Errorf("member %d: parallel tensor differs from sequential", i)
		}
		if seq.InVivo[i] != par.InVivo[i] {
			t.Errorf("member %d: parallel InVivo %v != sequential %v", i, par.InVivo[i], seq.InVivo[i])
		}
	}
}

// TestCollectWorkerCountsAgree sweeps worker counts (including the
// workers<=0 auto mode) and requires identical collections from each.
func TestCollectWorkerCountsAgree(t *testing.T) {
	split, ds := dropoutSplit(t)
	const count = 4
	want := Collect(split, ds, collectCfg(), count, 1)
	for _, workers := range []int{0, 2, 3, count + 5} {
		got := Collect(split, ds, collectCfg(), count, workers)
		for i := 0; i < count; i++ {
			if !tensor.Equal(want.Members[i], got.Members[i]) {
				t.Fatalf("workers=%d: member %d differs from sequential", workers, i)
			}
		}
	}
}

// TestConcurrentTrainNoiseSharedSplit trains 4 noise tensors concurrently
// over one shared Split — the reentrancy the tape refactor exists to
// provide. Under -race this fails if any layer still caches state on the
// struct; the result check pins that each run is also deterministic.
func TestConcurrentTrainNoiseSharedSplit(t *testing.T) {
	split, ds := dropoutSplit(t)
	const runs = 4

	cfgFor := func(i int) NoiseConfig {
		cfg := collectCfg()
		cfg.Seed = 900 + int64(i)*101
		return cfg
	}

	// Sequential reference results.
	want := make([]*tensor.Tensor, runs)
	for i := 0; i < runs; i++ {
		want[i] = TrainNoise(split, ds, cfgFor(i)).Noise.Values().Clone()
	}

	got := make([]*tensor.Tensor, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = TrainNoise(split, ds, cfgFor(i)).Noise.Values().Clone()
		}(i)
	}
	wg.Wait()

	for i := 0; i < runs; i++ {
		if !tensor.Equal(got[i], want[i]) {
			t.Errorf("run %d: concurrent result differs from sequential", i)
		}
	}
	// The shared network must come out untouched: zero parameter gradients.
	for _, p := range split.Net.Params() {
		for _, v := range p.Grad.Data() {
			if v != 0 {
				t.Fatalf("concurrent training left parameter gradient on %s", p.Name)
			}
		}
	}
}

// TestTrainNoiseConcurrentFirstUse starts four runs at once on a Split that
// has never trained: all four ask for R's training plan, one compiles it, and
// each run equals the same run made alone afterwards. Under -race this fails
// if the lazy compile or the plan's shared state is not synchronised.
func TestTrainNoiseConcurrentFirstUse(t *testing.T) {
	split, ds := dropoutSplit(t)
	const runs = 4
	cfgFor := func(i int) NoiseConfig {
		cfg := collectCfg()
		cfg.Seed = 1300 + int64(i)*7
		cfg.SelfSupervised = i%2 == 1
		return cfg
	}
	got := make([]*tensor.Tensor, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = TrainNoise(split, ds, cfgFor(i)).Noise.Values()
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if want := TrainNoise(split, ds, cfgFor(i)).Noise.Values(); !tensor.BitEqual(got[i], want) {
			t.Errorf("run %d: the concurrent first use differs from the run made alone", i)
		}
	}
}

// TestTrainNoiseConcurrentWithInference mixes training and serving on one
// Split: noise training must not disturb concurrent RemoteInfer calls.
func TestTrainNoiseConcurrentWithInference(t *testing.T) {
	split, ds := dropoutSplit(t)
	a := split.Local(ds.Batches(8)[0].Images)
	want := split.RemoteInfer(a)

	done := make(chan struct{})
	go func() {
		defer close(done)
		TrainNoise(split, ds, collectCfg())
	}()
	for i := 0; i < 20; i++ {
		if got := split.RemoteInfer(a); !tensor.Equal(got, want) {
			t.Error("inference result changed while training was in flight")
			break
		}
	}
	<-done
}
