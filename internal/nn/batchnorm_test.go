package nn

import (
	"math"
	"testing"

	"shredder/internal/tensor"
)

func TestBatchNormNormalizesTrainingBatch(t *testing.T) {
	rng := tensor.NewRNG(1)
	bn := NewBatchNorm2D("bn", 3)
	x := rng.FillNormal(tensor.New(4, 3, 5, 5), 7, 3) // far from standard
	y := bn.ForwardT(nil, x, true)
	// With γ=1, β=0 the per-channel output must be ~N(0,1).
	n, hw := 4, 25
	for c := 0; c < 3; c++ {
		var sum, sq float64
		for i := 0; i < n; i++ {
			for p := 0; p < hw; p++ {
				v := y.Data()[(i*3+c)*hw+p]
				sum += v
				sq += v * v
			}
		}
		mean := sum / float64(n*hw)
		variance := sq/float64(n*hw) - mean*mean
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("channel %d mean %v", c, mean)
		}
		if math.Abs(variance-1) > 1e-3 {
			t.Fatalf("channel %d variance %v", c, variance)
		}
	}
}

func TestBatchNormAffineApplies(t *testing.T) {
	rng := tensor.NewRNG(2)
	bn := NewBatchNorm2D("bn", 2)
	bn.Gamma.Value.CopyFrom(tensor.From([]float64{2, 3}, 2))
	bn.Beta.Value.CopyFrom(tensor.From([]float64{-1, 5}, 2))
	x := rng.FillNormal(tensor.New(3, 2, 4, 4), 0, 1)
	y := bn.ForwardT(nil, x, true)
	// Channel 0 output mean ≈ β₀ = −1, std ≈ γ₀ = 2.
	hw := 16
	var sum, sq float64
	for i := 0; i < 3; i++ {
		for p := 0; p < hw; p++ {
			v := y.Data()[(i*2+0)*hw+p]
			sum += v
			sq += v * v
		}
	}
	mean := sum / 48
	std := math.Sqrt(sq/48 - mean*mean)
	if math.Abs(mean+1) > 1e-9 || math.Abs(std-2) > 1e-3 {
		t.Fatalf("affine output mean %v std %v, want -1 / 2", mean, std)
	}
}

func TestBatchNormRunningStatsUsedAtInference(t *testing.T) {
	rng := tensor.NewRNG(3)
	bn := NewBatchNorm2D("bn", 2)
	// Train on several batches so running stats converge toward the true
	// distribution N(5, 4).
	for i := 0; i < 200; i++ {
		x := rng.FillNormal(tensor.New(8, 2, 3, 3), 5, 2)
		bn.ForwardT(nil, x, true)
	}
	// At inference a single constant input should be normalized by the
	// running stats, not its own (zero-variance) batch stats.
	x := tensor.New(1, 2, 3, 3).Fill(5)
	y := bn.ForwardT(nil, x, false)
	if y.MaxAbs() > 0.2 {
		t.Fatalf("inference normalization off: output %v", y.MaxAbs())
	}
}

func TestBatchNormGradCheck(t *testing.T) {
	rng := tensor.NewRNG(4)
	bn := NewBatchNorm2D("bn", 2)
	bn.Gamma.Value.CopyFrom(tensor.From([]float64{1.5, 0.7}, 2))
	bn.Beta.Value.CopyFrom(tensor.From([]float64{0.3, -0.2}, 2))
	x := rng.FillNormal(tensor.New(3, 2, 3, 3), 0, 1)

	// gradCheckLayer uses inference-mode loss re-evaluation, which is wrong
	// for batch norm (different normalization path). Check manually with
	// training-mode finite differences instead.
	w := rng.FillNormal(tensor.New(3, 2, 3, 3), 0, 1)
	loss := func() float64 { return tensor.Dot(bn.ForwardT(nil, x, true), w) }

	bn.Gamma.ZeroGrad()
	bn.Beta.ZeroGrad()
	tape := NewTape()
	bn.ForwardT(tape, x, true)
	dx := bn.BackwardT(tape, w)

	eps := 1e-5
	xd := x.Data()
	for _, i := range []int{0, 5, 17, 29, 41, 53} {
		orig := xd[i]
		xd[i] = orig + eps
		lp := loss()
		xd[i] = orig - eps
		lm := loss()
		xd[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dx.Data()[i]) > 1e-4*math.Max(1, math.Abs(num)) {
			t.Fatalf("input grad[%d]: analytic %v vs numeric %v", i, dx.Data()[i], num)
		}
	}
	for _, p := range bn.Params() {
		pd := p.Value.Data()
		for i := range pd {
			orig := pd[i]
			pd[i] = orig + eps
			lp := loss()
			pd[i] = orig - eps
			lm := loss()
			pd[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-p.Grad.Data()[i]) > 1e-4*math.Max(1, math.Abs(num)) {
				t.Fatalf("%s grad[%d]: analytic %v vs numeric %v", p.Name, i, p.Grad.Data()[i], num)
			}
		}
	}
}

func TestBatchNormBackwardBeforeForwardPanics(t *testing.T) {
	bn := NewBatchNorm2D("bn", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	bn.BackwardT(NewTape(), tensor.New(1, 1, 2, 2))
}

func TestBatchNormInSequentialTrains(t *testing.T) {
	// A conv+BN+relu net must train: end-to-end integration.
	rng := tensor.NewRNG(5)
	net := NewSequential("bnnet",
		NewConv2D("conv", 1, 4, 3, 3, 1, 1, rng),
		NewBatchNorm2D("bn", 4),
		NewReLU("relu"),
		NewFlatten("flat"),
		NewLinear("fc", 4*4*4, 3, rng),
	)
	x := rng.FillNormal(tensor.New(12, 1, 4, 4), 0, 1)
	labels := make([]int, 12)
	for i := range labels {
		labels[i] = i % 3
	}
	var first, last float64
	lr := 0.01
	for epoch := 0; epoch < 80; epoch++ {
		net.ZeroGrad()
		tape := NewTape()
		logits := net.ForwardT(tape, x, true)
		loss, grad := CrossEntropy(logits, labels)
		if epoch == 0 {
			first = loss
		}
		last = loss
		net.BackwardT(tape, grad)
		for _, p := range net.Params() {
			p.Value.AddScaled(-lr, p.Grad)
		}
	}
	if last > first*0.6 {
		t.Fatalf("BN network failed to train: %v → %v", first, last)
	}
}
