package core

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"shredder/internal/model"
	"shredder/internal/nn"
	"shredder/internal/tensor"
)

// testSplit returns a tiny pre-trained LeNet split at its last conv, with
// its train/test data. Cached across tests via sync-free package state is
// avoided; runs are fast enough to repeat.
func testSplit(t *testing.T, seed int64) (*Split, *model.Pretrained) {
	t.Helper()
	pre, err := model.Train(model.LeNet(), model.TrainConfig{TrainN: 400, TestN: 120, Epochs: 3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	layer, err := pre.Spec.CutLayer(pre.Spec.DefaultCut)
	if err != nil {
		t.Fatal(err)
	}
	split, err := NewSplit(pre.Net, layer, pre.Spec.Dataset.SampleShape())
	if err != nil {
		t.Fatal(err)
	}
	return split, pre
}

func TestNewSplitErrors(t *testing.T) {
	rng := tensor.NewRNG(1)
	net := nn.NewSequential("n",
		nn.NewFlatten("flat"),
		nn.NewLinear("fc", 4, 2, rng),
	)
	if _, err := NewSplit(net, "missing", []int{1, 2, 2}); err == nil {
		t.Fatal("expected error for missing layer")
	}
	if _, err := NewSplit(net, "fc", []int{1, 2, 2}); err == nil {
		t.Fatal("expected error for cut after last layer")
	}
	if _, err := NewSplit(net, "flat", []int{1, 2, 2}); err != nil {
		t.Fatalf("valid cut rejected: %v", err)
	}
}

// opaqueLayer is a Layer the inference compiler has no lowering for.
type opaqueLayer struct{}

func (opaqueLayer) Name() string           { return "opaque" }
func (opaqueLayer) Params() []*nn.Param    { return nil }
func (opaqueLayer) OutShape(s []int) []int { return s }

// TestNewSplitRejectsUncompilableLayer: every inference through a Split is
// a compiled plan, so a layer the compiler cannot lower — on either side of
// the cut — fails NewSplit with the compiler's error instead of silently
// serving through some other path.
func TestNewSplitRejectsUncompilableLayer(t *testing.T) {
	rng := tensor.NewRNG(1)
	for _, net := range []*nn.Sequential{
		nn.NewSequential("edge", opaqueLayer{}, nn.NewFlatten("flat"), nn.NewLinear("fc", 4, 2, rng)),
		nn.NewSequential("cloud", nn.NewFlatten("flat"), opaqueLayer{}, nn.NewLinear("fc", 4, 2, rng)),
	} {
		_, err := NewSplit(net, "flat", []int{1, 2, 2})
		if err == nil || !strings.Contains(err.Error(), `cannot compile layer "opaque"`) {
			t.Fatalf("%s: NewSplit = %v, want the compiler's error", net.Name(), err)
		}
	}
}

// TestSplitCompositionEqualsFullForward: on every zoo network at every cut
// the registry names, Local∘RemoteInfer, Forward and a plan of the whole
// network compiled apart from the Split agree bit for bit, and the cached
// activation shape is the one Local produces.
func TestSplitCompositionEqualsFullForward(t *testing.T) {
	for _, spec := range model.All() {
		rng := tensor.NewRNG(31)
		net := spec.Build(rng)
		for _, batch := range []int{1, 3} {
			x := rng.FillNormal(tensor.New(append([]int{batch}, spec.Dataset.SampleShape()...)...), 0, 1)
			oracle := inferAlone(t, net, x)
			for _, cp := range spec.CutPoints {
				split, err := NewSplit(net, cp.Layer, spec.Dataset.SampleShape())
				if err != nil {
					t.Fatal(err)
				}
				a := split.Local(x)
				if !tensor.ShapeEq(a.Shape()[1:], split.ActivationShape()) {
					t.Fatalf("%s/%s: activation shape %v, declared %v", spec.Name, cp.Name, a.Shape()[1:], split.ActivationShape())
				}
				for name, got := range map[string]*tensor.Tensor{
					"Local∘RemoteInfer": split.RemoteInfer(a),
					"Forward":           split.Forward(x),
				} {
					if !tensor.BitEqual(got, oracle) {
						t.Fatalf("%s/%s batch %d: %s differs from the network's own plan", spec.Name, cp.Name, batch, name)
					}
				}
			}
		}
	}
}

// TestSplitCompilesEachDtypeOnce: a Split owns one set of plans per dtype.
// At float64 RemotePlan and FullPlan are the plans behind RemoteInfer and
// Forward; at float32 sixteen goroutines asking at once all get the one plan
// compiled for the first; a cut inside a fused Conv2D | ReLU group (no steps
// to share) still serves the oracle's bits.
func TestSplitCompilesEachDtypeOnce(t *testing.T) {
	spec := model.LeNet()
	rng := tensor.NewRNG(32)
	net := spec.Build(rng)
	x := rng.FillNormal(tensor.New(append([]int{2}, spec.Dataset.SampleShape()...)...), 0, 1)
	oracle := inferAlone(t, net, x)
	for _, cut := range []string{"relu2", "conv0"} { // the default cut; conv0 | relu0
		split, err := NewSplit(net, cut, spec.Dataset.SampleShape())
		if err != nil {
			t.Fatal(err)
		}
		remote, err := split.RemotePlan(nn.Float64)
		if err != nil {
			t.Fatal(err)
		}
		full, err := split.FullPlan(nn.Float64)
		if err != nil {
			t.Fatal(err)
		}
		if remote != split.f64.remote || full != split.f64.full {
			t.Fatalf("cut %s: the float64 plans handed out are not the Split's own", cut)
		}
		if !tensor.BitEqual(remote.Infer(split.Local(x)), oracle) || !tensor.BitEqual(full.Infer(x), oracle) {
			t.Fatalf("cut %s: the Split's plans differ from the nil-tape forward pass", cut)
		}
		got := make([]*nn.CompiledNet, 16)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p, err := split.RemotePlan(nn.Float32)
				if err != nil {
					t.Error(err)
				}
				got[g] = p
			}()
		}
		wg.Wait()
		for _, p := range got {
			if p == nil || p != got[0] || p.Dtype() != nn.Float32 {
				t.Fatalf("cut %s: sixteen callers got different float32 plans", cut)
			}
		}
		if _, err := split.RemotePlan(nn.Dtype(99)); err == nil {
			t.Fatal("RemotePlan compiled for an unknown dtype")
		}
	}
}

func TestNoiseTensorInitializationMoments(t *testing.T) {
	rng := tensor.NewRNG(2)
	n := NewNoiseTensor([]int{100, 100}, 0.5, 2, rng)
	v := n.Values()
	if math.Abs(v.Mean()-0.5) > 0.1 {
		t.Fatalf("noise mean %v, want ~0.5", v.Mean())
	}
	if math.Abs(v.Variance()-8) > 0.8 { // Var(Laplace(·,2)) = 2·4 = 8
		t.Fatalf("noise variance %v, want ~8", v.Variance())
	}
}

func TestAddBroadcast(t *testing.T) {
	a := tensor.From([]float64{1, 2, 3, 4}, 2, 2)
	noise := tensor.From([]float64{10, 20}, 2)
	out := AddBroadcast(a, noise)
	want := tensor.From([]float64{11, 22, 13, 24}, 2, 2)
	if !tensor.Equal(out, want) {
		t.Fatalf("AddBroadcast = %v", out)
	}
	if !tensor.Equal(a, tensor.From([]float64{1, 2, 3, 4}, 2, 2)) {
		t.Fatal("AddBroadcast must not modify input")
	}
}

func TestAddBroadcastShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AddBroadcast(tensor.New(2, 3), tensor.New(2))
}

func TestAccumulateGradSumsOverBatch(t *testing.T) {
	n := NewNoiseTensor([]int{2}, 0, 1, tensor.NewRNG(3))
	n.Param.ZeroGrad()
	g := tensor.From([]float64{1, 2, 10, 20, 100, 200}, 3, 2)
	n.AccumulateGrad(g)
	want := tensor.From([]float64{111, 222}, 2)
	if !tensor.Equal(n.Param.Grad, want) {
		t.Fatalf("accumulated grad = %v, want %v", n.Param.Grad, want)
	}
}

func TestAddPrivacyGradSigns(t *testing.T) {
	n := &NoiseTensor{Param: nn.NewParam("noise", tensor.From([]float64{2, -3, 0}, 3))}
	AddPrivacyGrad(n, 0.1)
	want := tensor.From([]float64{-0.1, 0.1, 0}, 3)
	if !tensor.AllClose(n.Param.Grad, want, 1e-12) {
		t.Fatalf("privacy grad = %v, want %v", n.Param.Grad, want)
	}
}

// The gradient the trainer computes (through R's training plan, the pass
// TrainNoise runs, summed over batch, plus the privacy term) must match
// finite differences of the full Shredder loss with respect to the noise —
// this is the paper's §2.1 chain-rule claim, verified end to end.
func TestNoiseGradientMatchesFiniteDifference(t *testing.T) {
	split, pre := testSplit(t, 22)
	b := pre.Test.Batches(6)[0]
	rng := tensor.NewRNG(4)
	noise := NewNoiseTensor(split.ActivationShape(), 0, 0.5, rng)
	lambda := 0.01

	lossOf := func() float64 {
		a := split.Local(b.Images)
		logits := split.RemoteInfer(AddBroadcast(a, noise.Values()))
		total, _, _ := ShredderLoss(logits, b.Labels, noise, lambda)
		return total
	}

	plan, err := split.RemoteTrainPlan()
	if err != nil {
		t.Fatal(err)
	}
	pass := plan.NewPass(nil)
	logits := pass.ForwardInto(nil, AddBroadcast(split.Local(b.Images), noise.Values()))
	_, _, grad := ShredderLoss(logits, b.Labels, noise, lambda)
	dAprime := pass.BackwardInto(nil, grad)
	noise.Param.ZeroGrad()
	noise.AccumulateGrad(dAprime)
	AddPrivacyGrad(noise, lambda)

	eps := 1e-5
	nd := noise.Param.Value.Data()
	for _, i := range []int{0, 17, 40, 77, 119} {
		orig := nd[i]
		nd[i] = orig + eps
		lp := lossOf()
		nd[i] = orig - eps
		lm := lossOf()
		nd[i] = orig
		num := (lp - lm) / (2 * eps)
		ana := noise.Param.Grad.Data()[i]
		if math.Abs(num-ana) > 1e-4*math.Max(1, math.Abs(num)) {
			t.Fatalf("noise grad[%d]: analytic %v vs numeric %v", i, ana, num)
		}
	}
}

func TestTrainNoiseFreezesWeights(t *testing.T) {
	split, pre := testSplit(t, 23)
	before := make([]*tensor.Tensor, 0)
	for _, p := range split.Net.Params() {
		before = append(before, p.Value.Clone())
	}
	TrainNoise(split, pre.Train, NoiseConfig{Scale: 1, Lambda: 0.01, Epochs: 0.2, Seed: 1})
	for i, p := range split.Net.Params() {
		if !tensor.Equal(before[i], p.Value) {
			t.Fatalf("parameter %s changed during noise training", p.Name)
		}
		if p.Grad.AbsSum() != 0 {
			t.Fatalf("parameter %s has stale gradients after noise training", p.Name)
		}
	}
}

func TestTrainNoiseRecoversAccuracy(t *testing.T) {
	// Core claim: starting from accuracy-destroying noise, training the
	// noise recovers most of the accuracy while keeping noise large.
	split, pre := testSplit(t, 24)
	rng := tensor.NewRNG(5)
	init := NewNoiseTensor(split.ActivationShape(), 0, 2.0, rng)

	accWith := func(noise *tensor.Tensor) float64 {
		correct := 0
		for _, b := range pre.Test.Batches(32) {
			a := split.Local(b.Images)
			logits := split.RemoteInfer(AddBroadcast(a, noise))
			for i, y := range b.Labels {
				if logits.Slice(i).Argmax() == y {
					correct++
				}
			}
		}
		return float64(correct) / float64(pre.Test.N())
	}

	accInit := accWith(init.Values())
	res := TrainNoise(split, pre.Train, NoiseConfig{
		Scale: 2.0, Lambda: 0.01, PrivacyTarget: 4, Epochs: 4, Seed: 6,
	})
	accTrained := accWith(res.Noise.Values())
	if accTrained <= accInit+0.05 {
		t.Fatalf("noise training did not recover accuracy: init %.3f, trained %.3f (baseline %.3f)",
			accInit, accTrained, pre.TestAccuracy())
	}
	if res.FinalInVivo <= 0 {
		t.Fatal("final in vivo privacy must be positive")
	}
	if res.Iterations <= 0 || res.Epochs <= 0 {
		t.Fatalf("bad bookkeeping: %+v", res)
	}
}

func TestTrainNoiseLambdaGrowsNoiseVsZeroLambda(t *testing.T) {
	// With λ > 0 and no decay, the trained noise must end up with larger
	// magnitude than privacy-agnostic (λ=0) training from the same init.
	split, pre := testSplit(t, 25)
	shredder := TrainNoise(split, pre.Train, NoiseConfig{Scale: 1, Lambda: 0.02, Epochs: 1, Seed: 7})
	agnostic := TrainNoise(split, pre.Train, NoiseConfig{Scale: 1, Lambda: 0, Epochs: 1, Seed: 7})
	if shredder.Noise.Values().AbsSum() <= agnostic.Noise.Values().AbsSum() {
		t.Fatalf("λ>0 should yield larger noise: shredder %v, agnostic %v",
			shredder.Noise.Values().AbsSum(), agnostic.Noise.Values().AbsSum())
	}
	if shredder.FinalInVivo <= agnostic.FinalInVivo {
		t.Fatalf("λ>0 should yield more in vivo privacy: %v vs %v",
			shredder.FinalInVivo, agnostic.FinalInVivo)
	}
}

func TestTrainNoiseEventsAndFractionalEpochs(t *testing.T) {
	split, pre := testSplit(t, 26)
	var events []TrainEvent
	res := TrainNoise(split, pre.Train, NoiseConfig{
		Scale: 1, Lambda: 0.01, Epochs: 0.25, Seed: 8, EvalEvery: 1,
		Log: func(e TrainEvent) { events = append(events, e) },
	})
	if len(events) != res.Iterations {
		t.Fatalf("%d events for %d iterations at EvalEvery=1", len(events), res.Iterations)
	}
	if res.Epochs > 0.5 {
		t.Fatalf("fractional epoch config ran %.2f epochs", res.Epochs)
	}
	for _, e := range events {
		if e.InVivo < 0 || math.IsNaN(e.Loss) {
			t.Fatalf("bad event %+v", e)
		}
	}
	if len(res.Events) != len(events) {
		t.Fatal("result events must mirror logged events")
	}
}

func TestTrainNoiseLambdaDecayTriggers(t *testing.T) {
	split, pre := testSplit(t, 27)
	// Gigantic initial noise: in vivo starts above target, so λ must decay
	// from the first evaluation.
	res := TrainNoise(split, pre.Train, NoiseConfig{
		Scale: 5, Lambda: 0.05, PrivacyTarget: 0.1, LambdaDecay: 0.5,
		Epochs: 0.5, Seed: 9, EvalEvery: 1,
	})
	first := res.Events[0].Lambda
	last := res.Events[len(res.Events)-1].Lambda
	if last >= first {
		t.Fatalf("λ did not decay: first %v, last %v", first, last)
	}
}

func TestTrainNoiseSelfSupervised(t *testing.T) {
	split, pre := testSplit(t, 28)
	res := TrainNoise(split, pre.Train, NoiseConfig{
		Scale: 1.5, Lambda: 0.01, Epochs: 1, Seed: 10, SelfSupervised: true,
	})
	if !res.Noise.Values().AllFinite() {
		t.Fatal("self-supervised noise diverged")
	}
	if res.FinalInVivo <= 0 {
		t.Fatal("self-supervised training should retain positive privacy")
	}
}

func TestCollectionSampleAndStats(t *testing.T) {
	rng := tensor.NewRNG(11)
	c := &Collection{}
	for i := 0; i < 3; i++ {
		n := NewNoiseTensor([]int{4}, 0, 1, rng)
		c.AddMember(n, nil, float64(i+1))
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	if got := c.MeanInVivo(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("MeanInVivo = %v", got)
	}
	seen := map[*tensor.Tensor]bool{}
	for i := 0; i < 100; i++ {
		d := c.DrawInto(nil, rng)
		if d.Noise != c.Members[d.Member] || d.Multiplicative() {
			t.Fatalf("draw %d: member %d with tensor %p and weight %p", i, d.Member, d.Noise, d.Weight)
		}
		seen[d.Noise] = true
	}
	if len(seen) != 3 {
		t.Fatalf("sampling hit %d of 3 members", len(seen))
	}
	if c.Mode() != ModeStored || !tensor.ShapeEq(c.NoiseShape(), c.Shape) {
		t.Fatalf("Mode %q, NoiseShape %v", c.Mode(), c.NoiseShape())
	}
}

func TestCollectionShapeMismatchPanics(t *testing.T) {
	rng := tensor.NewRNG(12)
	c := &Collection{}
	c.AddMember(NewNoiseTensor([]int{4}, 0, 1, rng), nil, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.AddMember(NewNoiseTensor([]int{5}, 0, 1, rng), nil, 1)
}

func TestCollectionEncodeDecode(t *testing.T) {
	rng := tensor.NewRNG(13)
	c := &Collection{}
	c.AddMember(NewNoiseTensor([]int{3, 2}, 0, 1, rng), nil, 0.5)
	c.AddMember(NewNoiseTensor([]int{3, 2}, 0, 1, rng), nil, 0.7)
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCollection(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || !tensor.Equal(got.Members[1], c.Members[1]) {
		t.Fatal("collection round trip failed")
	}
	if got.InVivo[0] != 0.5 {
		t.Fatal("in vivo stats lost in round trip")
	}
}

func TestCollectDistinctMembers(t *testing.T) {
	split, pre := testSplit(t, 29)
	col := Collect(split, pre.Train, NoiseConfig{Scale: 1, Lambda: 0.01, Epochs: 0.1, Seed: 100}, 3, 1)
	if col.Len() != 3 {
		t.Fatalf("collected %d members", col.Len())
	}
	if tensor.Equal(col.Members[0], col.Members[1]) {
		t.Fatal("collection members should differ (different seeds)")
	}
}

func TestEvaluateEndToEnd(t *testing.T) {
	split, pre := testSplit(t, 30)
	col := Collect(split, pre.Train, NoiseConfig{
		Scale: 2, Lambda: 0.01, PrivacyTarget: 4, Epochs: 2, Seed: 200,
	}, 4, 1)
	res := Evaluate(split, pre.Test, col, EvalConfig{Seed: 1})
	if res.BaselineAcc <= 0.3 {
		t.Fatalf("baseline accuracy %v too low for a trained net", res.BaselineAcc)
	}
	if res.NoisyAcc <= 0.2 {
		t.Fatalf("noisy accuracy %v collapsed", res.NoisyAcc)
	}
	if res.ShreddedMI >= res.OrigMI {
		t.Fatalf("shredded MI (%v) should be below original (%v)", res.ShreddedMI, res.OrigMI)
	}
	if res.MILossPct <= 0 {
		t.Fatalf("MI loss %v%% should be positive", res.MILossPct)
	}
	if res.InVivo <= 0 {
		t.Fatal("in vivo privacy should be positive")
	}
}

func TestActivationsShapeAndNoise(t *testing.T) {
	split, pre := testSplit(t, 31)
	rng := tensor.NewRNG(14)
	clean := Activations(split, pre.Test, nil, 16, rng)
	wantShape := append([]int{pre.Test.N()}, split.ActivationShape()...)
	if !tensor.ShapeEq(clean.Shape(), wantShape) {
		t.Fatalf("activations shape %v, want %v", clean.Shape(), wantShape)
	}
	col := &Collection{}
	col.AddMember(NewNoiseTensor(split.ActivationShape(), 0, 3, rng), nil, 1)
	noisy := Activations(split, pre.Test, col, 16, rng)
	if tensor.AllClose(clean, noisy, 1e-9) {
		t.Fatal("noisy activations should differ from clean")
	}
}

// inferAlone runs net on x through a float64 plan of its own, compiled apart
// from any Split.
func inferAlone(t *testing.T, net *nn.Sequential, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	plan, err := nn.Compile(net, nn.Float64)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Infer(x)
}
