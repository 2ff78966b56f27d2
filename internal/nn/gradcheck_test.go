package nn

import (
	"math"
	"testing"

	"shredder/internal/tensor"
)

// gradCheckLayer verifies a layer's backward pass against central finite
// differences. It uses loss = Σ w⊙Forward(x) with random w, so the analytic
// gradient is BackwardT(w), and checks both the input gradient and every
// parameter gradient. A frozen tape must give the same input gradient
// bitwise and leave every parameter gradient untouched.
func gradCheckLayer(t *testing.T, l tapeLayer, x *tensor.Tensor, eps, tol float64, seed int64) {
	t.Helper()
	rng := tensor.NewRNG(seed)

	tape := NewTape()
	out := l.ForwardT(tape, x, true)
	w := rng.FillNormal(tensor.New(out.Shape()...), 0, 1)

	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	dx := l.BackwardT(tape, w)

	loss := func() float64 {
		return tensor.Dot(l.ForwardT(nil, x, false), w)
	}

	// Frozen tape: same input gradient, zero parameter gradients.
	grads := make([]*tensor.Tensor, len(l.Params()))
	for i, p := range l.Params() {
		grads[i] = p.Grad.Clone()
		p.ZeroGrad()
	}
	frozen := NewFrozenTape()
	l.ForwardT(frozen, x, true)
	if dxF := l.BackwardT(frozen, w); !tensor.Equal(dxF, dx) {
		t.Fatalf("%s: frozen-tape input grad diverges", l.Name())
	}
	for _, p := range l.Params() {
		for _, v := range p.Grad.Data() {
			if v != 0 {
				t.Fatalf("%s: frozen tape wrote param gradient %s", l.Name(), p.Name)
			}
		}
	}

	// Restore the recording tape's gradients for the finite-difference check.
	for i, p := range l.Params() {
		p.Grad.CopyFrom(grads[i])
	}

	// Input gradient. Checking every element is O(|x|) forwards; keep the
	// test inputs small.
	xd := x.Data()
	for i := range xd {
		orig := xd[i]
		xd[i] = orig + eps
		lp := loss()
		xd[i] = orig - eps
		lm := loss()
		xd[i] = orig
		num := (lp - lm) / (2 * eps)
		ana := dx.Data()[i]
		if math.Abs(num-ana) > tol*math.Max(1, math.Abs(num)) {
			t.Fatalf("%s: input grad[%d] analytic %v vs numeric %v", l.Name(), i, ana, num)
		}
	}

	// Parameter gradients.
	for _, p := range l.Params() {
		pd := p.Value.Data()
		for i := range pd {
			orig := pd[i]
			pd[i] = orig + eps
			lp := loss()
			pd[i] = orig - eps
			lm := loss()
			pd[i] = orig
			num := (lp - lm) / (2 * eps)
			ana := p.Grad.Data()[i]
			if math.Abs(num-ana) > tol*math.Max(1, math.Abs(num)) {
				t.Fatalf("%s: param %s grad[%d] analytic %v vs numeric %v", l.Name(), p.Name, i, ana, num)
			}
		}
	}
}

func TestConv2DGradCheck(t *testing.T) {
	rng := tensor.NewRNG(100)
	l := NewConv2D("conv", 2, 3, 3, 3, 1, 1, rng)
	x := rng.FillNormal(tensor.New(2, 2, 5, 5), 0, 1)
	gradCheckLayer(t, l, x, 1e-5, 1e-5, 1)
}

func TestConv2DStridedGradCheck(t *testing.T) {
	rng := tensor.NewRNG(101)
	l := NewConv2D("conv", 1, 2, 2, 2, 2, 0, rng)
	x := rng.FillNormal(tensor.New(2, 1, 6, 6), 0, 1)
	gradCheckLayer(t, l, x, 1e-5, 1e-5, 2)
}

func TestLinearGradCheck(t *testing.T) {
	rng := tensor.NewRNG(102)
	l := NewLinear("fc", 7, 4, rng)
	x := rng.FillNormal(tensor.New(3, 7), 0, 1)
	gradCheckLayer(t, l, x, 1e-5, 1e-5, 3)
}

func TestReLUGradCheck(t *testing.T) {
	rng := tensor.NewRNG(103)
	l := NewReLU("relu")
	// Keep inputs away from the non-differentiable point at 0.
	x := rng.FillNormal(tensor.New(2, 10), 0, 1)
	x.Apply(func(v float64) float64 {
		if math.Abs(v) < 0.05 {
			return v + 0.1
		}
		return v
	})
	gradCheckLayer(t, l, x, 1e-6, 1e-5, 4)
}

func TestMaxPoolGradCheck(t *testing.T) {
	rng := tensor.NewRNG(104)
	l := NewMaxPool2D("pool", 2, 2)
	x := rng.FillNormal(tensor.New(2, 2, 4, 4), 0, 1)
	gradCheckLayer(t, l, x, 1e-6, 1e-5, 5)
}

func TestFlattenGradCheck(t *testing.T) {
	rng := tensor.NewRNG(106)
	l := NewFlatten("flat")
	x := rng.FillNormal(tensor.New(2, 2, 3, 3), 0, 1)
	gradCheckLayer(t, l, x, 1e-6, 1e-6, 7)
}

func TestLRNGradCheck(t *testing.T) {
	rng := tensor.NewRNG(107)
	l := NewLocalResponseNorm("lrn", 3, 2, 0.5, 0.75)
	x := rng.FillNormal(tensor.New(2, 4, 3, 3), 0, 1)
	gradCheckLayer(t, l, x, 1e-5, 1e-4, 8)
}

func TestLRNGradCheckAlexNetConstants(t *testing.T) {
	rng := tensor.NewRNG(108)
	l := NewLocalResponseNorm("lrn", 5, 0, 0, 0) // defaults k=2, α=1e-4, β=0.75
	x := rng.FillNormal(tensor.New(1, 6, 2, 2), 0, 2)
	gradCheckLayer(t, l, x, 1e-5, 1e-4, 9)
}

// Cross-entropy gradient against finite differences.
func TestCrossEntropyGradCheck(t *testing.T) {
	rng := tensor.NewRNG(109)
	logits := rng.FillNormal(tensor.New(4, 5), 0, 1)
	labels := []int{1, 3, 0, 4}
	_, grad := CrossEntropy(logits, labels)
	eps := 1e-6
	ld := logits.Data()
	for i := range ld {
		orig := ld[i]
		ld[i] = orig + eps
		lp, _ := CrossEntropy(logits, labels)
		ld[i] = orig - eps
		lm, _ := CrossEntropy(logits, labels)
		ld[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-grad.Data()[i]) > 1e-5 {
			t.Fatalf("CE grad[%d]: analytic %v vs numeric %v", i, grad.Data()[i], num)
		}
	}
}

func TestSoftCrossEntropyGradCheck(t *testing.T) {
	rng := tensor.NewRNG(110)
	logits := rng.FillNormal(tensor.New(3, 4), 0, 1)
	target := Softmax(rng.FillNormal(tensor.New(3, 4), 0, 1))
	grad, probe := tensor.New(3, 4), tensor.New(3, 4)
	SoftCrossEntropyInto(grad, logits, target)
	eps := 1e-6
	ld := logits.Data()
	for i := range ld {
		orig := ld[i]
		ld[i] = orig + eps
		lp := SoftCrossEntropyInto(probe, logits, target)
		ld[i] = orig - eps
		lm := SoftCrossEntropyInto(probe, logits, target)
		ld[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-grad.Data()[i]) > 1e-5 {
			t.Fatalf("soft CE grad[%d]: analytic %v vs numeric %v", i, grad.Data()[i], num)
		}
	}
}

// End-to-end gradient through a small conv net: verifies that chained
// Backward calls compose correctly — this is exactly the ∂y/∂n chain rule of
// paper §2.1.
func TestSequentialGradCheck(t *testing.T) {
	rng := tensor.NewRNG(111)
	net := NewSequential("tiny",
		NewConv2D("conv0", 1, 2, 3, 3, 1, 1, rng),
		NewReLU("relu0"),
		NewMaxPool2D("pool0", 2, 2),
		NewFlatten("flat"),
		NewLinear("fc", 2*3*3, 4, rng),
	)
	x := rng.FillNormal(tensor.New(2, 1, 6, 6), 0, 1)
	labels := []int{1, 2}

	lossOf := func() float64 {
		logits := net.ForwardT(nil, x, false)
		l, _ := CrossEntropy(logits, labels)
		return l
	}

	net.ZeroGrad()
	tape := NewTape()
	logits := net.ForwardT(tape, x, true)
	_, grad := CrossEntropy(logits, labels)
	dx := net.BackwardT(tape, grad)

	eps := 1e-5
	xd := x.Data()
	for _, i := range []int{0, 7, 13, 29, 41, 71} {
		orig := xd[i]
		xd[i] = orig + eps
		lp := lossOf()
		xd[i] = orig - eps
		lm := lossOf()
		xd[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dx.Data()[i]) > 1e-4*math.Max(1, math.Abs(num)) {
			t.Fatalf("input grad[%d]: analytic %v vs numeric %v", i, dx.Data()[i], num)
		}
	}
	// Spot-check a few parameter grads.
	for _, p := range net.Params() {
		pd := p.Value.Data()
		for _, i := range []int{0, len(pd) / 2, len(pd) - 1} {
			orig := pd[i]
			pd[i] = orig + eps
			lp := lossOf()
			pd[i] = orig - eps
			lm := lossOf()
			pd[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-p.Grad.Data()[i]) > 1e-4*math.Max(1, math.Abs(num)) {
				t.Fatalf("param %s grad[%d]: analytic %v vs numeric %v", p.Name, i, p.Grad.Data()[i], num)
			}
		}
	}
}

// TestTrainPlanWeightGradCheck: the weight and bias gradients a training
// plan's BackwardParams adds — the ones pre-training steps on — match central
// finite differences of the loss, every element of every parameter, through a
// net with each kind of step between its weights: padded and unpadded
// convolutions, fused and standalone ReLU, LRN, max pooling, a flatten and
// two linear layers.
func TestTrainPlanWeightGradCheck(t *testing.T) {
	rng := tensor.NewRNG(112)
	net := NewSequential("tiny",
		NewConv2D("conv0", 2, 3, 3, 3, 1, 1, rng), // 3×6×6
		NewReLU("relu0"),
		NewLocalResponseNorm("lrn0", 3, 2, 0.5, 0.75),
		NewMaxPool2D("pool0", 2, 2),               // 3×3×3
		NewConv2D("conv1", 3, 4, 2, 2, 1, 0, rng), // 4×2×2
		NewReLU("relu1"),
		NewFlatten("flat"),
		NewLinear("fc0", 16, 5, rng),
		NewReLU("relu2"),
		NewLinear("fc1", 5, 3, rng),
	)
	x := rng.FillNormal(tensor.New(2, 2, 6, 6), 0, 1)
	labels := []int{2, 0}
	compile := func() *CompiledNet {
		plan, err := Compile(net, Float64)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	// A plan is a snapshot of the weights: every probe compiles its own.
	lossOf := func() float64 {
		loss, _ := CrossEntropy(compile().Infer(x), labels)
		return loss
	}

	tp, err := compile().TrainPlan()
	if err != nil {
		t.Fatal(err)
	}
	pass := tp.NewPass(nil)
	_, grad := CrossEntropy(pass.ForwardInto(nil, x), labels)
	net.ZeroGrad()
	pass.BackwardParams(grad)

	const eps = 1e-5
	for _, p := range net.Params() {
		pd := p.Value.Data()
		for i := range pd {
			orig := pd[i]
			pd[i] = orig + eps
			lp := lossOf()
			pd[i] = orig - eps
			lm := lossOf()
			pd[i] = orig
			num := (lp - lm) / (2 * eps)
			if ana := p.Grad.Data()[i]; math.Abs(num-ana) > 1e-5*math.Max(1, math.Abs(num)) {
				t.Fatalf("param %s grad[%d]: analytic %v vs numeric %v", p.Name, i, ana, num)
			}
		}
	}
}
