package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"shredder/internal/noisedist"
	"shredder/internal/obs"
	"shredder/internal/tensor"
)

// MeanInVivo contract: empty collections report 0, never NaN.
func TestMeanInVivoEmptyContract(t *testing.T) {
	if v := (&Collection{}).MeanInVivo(); v != 0 || math.IsNaN(v) {
		t.Fatalf("empty Collection MeanInVivo = %v, want 0", v)
	}
	if v := (&FittedCollection{}).MeanInVivo(); v != 0 || math.IsNaN(v) {
		t.Fatalf("empty FittedCollection MeanInVivo = %v, want 0", v)
	}
}

func TestAddMemberMixingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mixing additive and multiplicative members")
		}
	}()
	rng := tensor.NewRNG(1)
	c := &Collection{}
	c.AddMember(NewNoiseTensor([]int{2}, 0, 1, rng), nil, 0)
	c.AddMember(NewNoiseTensor([]int{2}, 0, 1, rng), NewWeightTensor([]int{2}, 1, 0.1, rng), 0)
}

func TestDrawApplyInPlace(t *testing.T) {
	a := tensor.From([]float64{1, 2, 3}, 3)
	n := tensor.From([]float64{10, 20, 30}, 3)
	w := tensor.From([]float64{2, 3, 4}, 3)
	Draw{Noise: n}.ApplyInPlace(a)
	if !tensor.Equal(a, tensor.From([]float64{11, 22, 33}, 3)) {
		t.Fatalf("additive apply = %v", a)
	}
	a = tensor.From([]float64{1, 2, 3}, 3)
	Draw{Noise: n, Weight: w}.ApplyInPlace(a)
	if !tensor.Equal(a, tensor.From([]float64{12, 26, 42}, 3)) {
		t.Fatalf("multiplicative apply = %v", a)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Draw{Noise: n}.ApplyInPlace(tensor.New(2))
}

func TestFitCollectionFittedDraws(t *testing.T) {
	col := syntheticCollection(4, false)
	fc, err := FitCollection(col, noisedist.Laplace)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Mode() != ModeFitted || fc.Components() != 4 {
		t.Fatalf("mode %q components %d", fc.Mode(), fc.Components())
	}
	// Fixed seed → byte-identical draws, distinct seeds → fresh noise.
	d1 := fc.DrawInto(nil, tensor.NewRNG(3))
	d2 := fc.DrawInto(nil, tensor.NewRNG(3))
	d3 := fc.DrawInto(nil, tensor.NewRNG(4))
	if !tensor.Equal(d1.Noise, d2.Noise) {
		t.Fatal("same seed drew different noise")
	}
	if tensor.Equal(d1.Noise, d3.Noise) {
		t.Fatal("different seeds drew identical noise")
	}
	if d1.Member != -1 {
		t.Fatalf("fitted draw Member = %d, want -1", d1.Member)
	}
	for _, m := range col.Members {
		if tensor.Equal(d1.Noise, m) {
			t.Fatal("fitted draw replayed a stored member")
		}
	}
	// Fitted parameters must stay below the stored float64 tensors.
	stored := 8 * tensor.Volume(col.Shape) * col.Len()
	if fc.MemoryBytes() >= stored {
		t.Fatalf("fitted %d B >= stored %d B", fc.MemoryBytes(), stored)
	}
}

func TestFitCollectionErrors(t *testing.T) {
	if _, err := FitCollection(nil, noisedist.Laplace); !errors.Is(err, ErrCollectionEmpty) {
		t.Fatalf("nil: err = %v", err)
	}
	if _, err := FitCollection(&Collection{}, noisedist.Laplace); !errors.Is(err, ErrCollectionEmpty) {
		t.Fatalf("empty: err = %v", err)
	}
}

func TestFitCollectionMultiplicative(t *testing.T) {
	col := syntheticCollection(3, true)
	fc, err := FitCollection(col, noisedist.Gaussian)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Mode() != ModeFittedMul || fc.Weight == nil {
		t.Fatalf("mode %q weight %v", fc.Mode(), fc.Weight)
	}
	d := fc.DrawInto(nil, tensor.NewRNG(6))
	if !d.Multiplicative() || d.Weight == nil {
		t.Fatal("fitted-mul draw must carry a weight")
	}
	// Weights were initialized near N(1, 0.2): the fitted weight
	// distribution must reflect that, not the noise scale.
	if loc := fc.Weight.MeanLoc(); math.Abs(loc-1) > 0.2 {
		t.Fatalf("fitted weight loc %v, want ~1", loc)
	}
}

func TestMulAddBroadcast(t *testing.T) {
	a := tensor.From([]float64{1, 2, 3, 4}, 2, 2)
	w := tensor.From([]float64{2, 3}, 2)
	n := tensor.From([]float64{10, 20}, 2)
	out := MulAddBroadcast(a, w, n)
	want := tensor.From([]float64{12, 26, 16, 32}, 2, 2)
	if !tensor.Equal(out, want) {
		t.Fatalf("MulAddBroadcast = %v", out)
	}
	if !tensor.Equal(a, tensor.From([]float64{1, 2, 3, 4}, 2, 2)) {
		t.Fatal("MulAddBroadcast must not modify input")
	}
}

func TestAccumulateWeightGradSumsOverBatch(t *testing.T) {
	w := NewWeightTensor([]int{2}, 1, 0.1, tensor.NewRNG(3))
	w.Param.ZeroGrad()
	d := tensor.From([]float64{1, 2, 10, 20}, 2, 2)
	a := tensor.From([]float64{3, 4, 5, 6}, 2, 2)
	w.AccumulateWeightGrad(d, a)
	// ∂loss/∂w_j = Σ_i d_ij · a_ij: [1·3 + 10·5, 2·4 + 20·6]
	want := tensor.From([]float64{53, 128}, 2)
	if !tensor.Equal(w.Param.Grad, want) {
		t.Fatalf("weight grad = %v, want %v", w.Param.Grad, want)
	}
}

// The multiplicative objective must train end to end: weights move off
// their initialization, the result stays finite, and the collection pairs
// a weight with every member.
func TestTrainNoiseMultiplicative(t *testing.T) {
	split, pre := testSplit(t, 31)
	cfg := NoiseConfig{Scale: 0.5, Lambda: 0.05, Epochs: 0.3, Seed: 7, Multiplicative: true}
	res := TrainNoise(split, pre.Train, cfg)
	if res.Weight == nil {
		t.Fatal("multiplicative run returned no weight tensor")
	}
	if !res.Weight.Values().AllFinite() || !res.Noise.Values().AllFinite() {
		t.Fatal("non-finite parameters")
	}
	add := TrainNoise(split, pre.Train, NoiseConfig{Scale: 0.5, Lambda: 0.05, Epochs: 0.3, Seed: 7})
	if add.Weight != nil {
		t.Fatal("additive run must not return a weight tensor")
	}

	col := Collect(split, pre.Train, cfg, 2, 1)
	if !col.Multiplicative() || len(col.Weights) != col.Len() {
		t.Fatalf("collection: mul=%v weights=%d members=%d", col.Multiplicative(), len(col.Weights), col.Len())
	}
	// The stored-mul source must evaluate end to end with sane outputs.
	ev := Evaluate(split, pre.Test, col, EvalConfig{Seed: 5})
	if math.IsNaN(ev.NoisyAcc) || math.IsNaN(ev.InVivo) || ev.InVivo < 0 {
		t.Fatalf("evaluate: acc %v inVivo %v", ev.NoisyAcc, ev.InVivo)
	}
	// And so must its fit.
	fc, err := FitCollection(col, noisedist.Laplace)
	if err != nil {
		t.Fatal(err)
	}
	evf := Evaluate(split, pre.Test, fc, EvalConfig{Seed: 5})
	if math.IsNaN(evf.NoisyAcc) || math.IsNaN(evf.InVivo) || evf.InVivo < 0 {
		t.Fatalf("fitted evaluate: acc %v inVivo %v", evf.NoisyAcc, evf.InVivo)
	}
}

// Telemetry over a fitted source: distribution gauges registered, queries
// counted, realized 1/SNR sampled from fresh draws, summary renders the
// fitted block.
func TestPrivacyMonitorFittedSource(t *testing.T) {
	col := syntheticCollection(3, false)
	fc, err := FitCollection(col, noisedist.Laplace)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m := NewPrivacyMonitor(reg, fc, 0.5, 1)
	if m == nil {
		t.Fatal("monitor nil for fitted source")
	}
	act := tensor.New(3, 4)
	tensor.NewRNG(2).FillNormal(act, 1, 0.1)
	rng := tensor.NewRNG(8)
	for i := 0; i < 10; i++ {
		m.Observe(fc.DrawInto(nil, rng), act)
	}
	if m.Queries() != 10 {
		t.Fatalf("queries = %d", m.Queries())
	}
	snap := reg.Snapshot()
	for _, name := range []string{"privacy.dist.components", "privacy.dist.loc", "privacy.dist.scale", "privacy.dist.noise_var"} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Fatalf("gauge %s not registered (have %v)", name, snap.Gauges)
		}
	}
	if got := snap.Gauges["privacy.dist.components"]; got != 3 {
		t.Fatalf("components gauge = %v", got)
	}
	var sb strings.Builder
	m.WriteSummary(&sb)
	out := sb.String()
	if !strings.Contains(out, "mode fitted") || !strings.Contains(out, "laplace") {
		t.Fatalf("summary missing fitted block:\n%s", out)
	}

	// Stored sources get the per-member monitor from the same constructor.
	ms := NewPrivacyMonitor(obs.NewRegistry(), col, 0.5, 1)
	ms.Observe(col.DrawInto(nil, tensor.NewRNG(1)), act)
	if ms.Queries() != 1 {
		t.Fatalf("stored queries = %d", ms.Queries())
	}
	// Unknown source types yield a disabled (nil) monitor.
	if NewPrivacyMonitor(reg, fakeSource{}, 0, 1) != nil {
		t.Fatal("unknown source should yield nil monitor")
	}
}

// Evaluate over a fitted source must be deterministic for a fixed seed.
func TestEvaluateFittedDeterministic(t *testing.T) {
	split, pre := testSplit(t, 33)
	col := Collect(split, pre.Train, NoiseConfig{Scale: 0.5, Lambda: 0.05, Epochs: 0.2, Seed: 3}, 2, 1)
	fc, err := FitCollection(col, noisedist.Laplace)
	if err != nil {
		t.Fatal(err)
	}
	a := Evaluate(split, pre.Test, fc, EvalConfig{Seed: 11})
	b := Evaluate(split, pre.Test, fc, EvalConfig{Seed: 11})
	if a != b {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
}
