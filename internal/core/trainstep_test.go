package core

import (
	"runtime"
	"testing"

	"shredder/internal/model"
	"shredder/internal/nn"
	"shredder/internal/optim"
	"shredder/internal/race"
	"shredder/internal/tensor"
)

// stepRig is a noise run ready to step on the first batch of a synthetic set
// that makes more than one pass, over an untrained zoo network.
func stepRig(tb testing.TB, spec model.Spec, cut string, cfg NoiseConfig) (*noiseRun, []int) {
	tb.Helper()
	cfg = cfg.withDefaults()
	split, ds := pinRig(tb, spec, cut, 2*cfg.BatchSize)
	idx := make([]int, cfg.BatchSize)
	for i := range idx {
		idx[i] = 2 * i
	}
	return newNoiseRun(split, newTrainSet(split, ds, cfg), cfg), idx
}

// TestTrainStepAllocations: a warm step builds nothing. On one P the whole
// step runs on the caller's goroutine and allocates exactly nothing, in every
// mode; where the batch fans out over the kernel team the chunk bodies are
// the pass's own, built once, so the ceiling is the one object a helper
// goroutine's start may cost — plus, in a run of at most one pass, the
// chunking closure of each inference plan it runs per batch (L, and R for the
// soft targets).
func TestTrainStepAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, tc := range []struct {
		name string
		spec model.Spec
		cut  string
		cfg  NoiseConfig
		max  float64 // fanned out
	}{
		{"additive", model.LeNet(), "conv0", NoiseConfig{Lambda: 0.01, Epochs: 2}, 1},
		{"multiplicative", model.LeNet(), "conv2", NoiseConfig{Lambda: 0.01, Epochs: 2, Multiplicative: true}, 1},
		{"self-supervised", model.LeNet(), "conv1", NoiseConfig{Lambda: 0.01, Epochs: 2, SelfSupervised: true}, 1},
		{"one-pass", model.LeNet(), "conv0", NoiseConfig{Lambda: 0.01, Epochs: 0.5, SelfSupervised: true}, 3},
		{"dropout", model.CifarNet(), "conv3", NoiseConfig{Lambda: 0.01, Epochs: 2, BatchSize: 8}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, idx := stepRig(t, tc.spec, tc.cut, tc.cfg)
			step := func() { r.step(idx, 0.01) }
			step()
			if n := testing.AllocsPerRun(10, step); n > tc.max {
				t.Errorf("a warm step fanned out over %d Ps allocates %v times, want at most %v", runtime.GOMAXPROCS(0), n, tc.max)
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			step()
			if n := testing.AllocsPerRun(10, step); n != 0 {
				t.Errorf("a warm step on one P allocates %v times, want 0", n)
			}
		})
	}
}

// TestTrainNoiseEmptyDatasetPanics: an empty dataset is refused by name, and
// before the run builds anything: not even R's training plan is compiled.
func TestTrainNoiseEmptyDatasetPanics(t *testing.T) {
	rng := tensor.NewRNG(1)
	net := nn.NewSequential("tiny", nn.NewFlatten("flat"), nn.NewLinear("fc", 4, 2, rng))
	split, err := NewSplit(net, "flat", []int{1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != "core: TrainNoise on empty dataset" {
			t.Fatalf("TrainNoise on an empty dataset: recovered %v", r)
		}
		if split.trainR.plan != nil {
			t.Fatal("the refused run compiled a training plan first")
		}
	}()
	TrainNoise(split, syntheticSet(rng, []int{1, 2, 2}, 2, 0), NoiseConfig{})
}

// freshStep is a step of TrainNoise without what the run keeps between
// steps: Local recomputed, a fresh a′, a fresh pass over R's training plan
// with fresh result tensors, a fresh loss gradient — the benchmark's
// reference.
func freshStep(r *noiseRun, opt *optim.Adam, images *tensor.Tensor, labels []int) {
	a := r.split.Local(images)
	plan, err := r.split.RemoteTrainPlan()
	if err != nil {
		panic(err)
	}
	pass := plan.NewPass(tensor.NewRNG(1))
	logits := pass.ForwardInto(nil, r.noise.Apply(a))
	_, _, grad := ShredderLoss(logits, labels, r.noise, 0.01)
	dA := pass.BackwardInto(nil, grad)
	r.noise.Param.ZeroGrad()
	r.noise.AccumulateGrad(dA)
	AddPrivacyGrad(r.noise, 0.01)
	opt.Step()
}

// BenchmarkTrainStep times one additive 32-sample step of a run beside a
// fresh step that keeps nothing between steps, at the benchmark's three
// training geometries (run with -benchmem).
func BenchmarkTrainStep(b *testing.B) {
	for _, tc := range []struct {
		spec model.Spec
		cut  string
	}{{model.LeNet(), "conv0"}, {model.LeNet(), "conv2"}, {model.SvhnNet(), "conv0"}} {
		r, idx := stepRig(b, tc.spec, tc.cut, NoiseConfig{Lambda: 0.01, Epochs: 2})
		name := tc.spec.Name + "." + tc.cut
		b.Run(name+"/fresh", func(b *testing.B) {
			images := tensor.New(append([]int{len(idx)}, r.set.ds.SampleShape()...)...)
			gatherRows(images, r.set.ds.Images, idx)
			labels := make([]int, len(idx))
			opt := optim.NewAdam([]*nn.Param{r.noise.Param}, 0.01)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				freshStep(r, opt, images, labels)
			}
		})
		b.Run(name+"/plan", func(b *testing.B) {
			r.step(idx, 0.01)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.step(idx, 0.01)
			}
		})
	}
}
