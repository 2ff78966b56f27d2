package optim

import (
	"math"
	"testing"

	"shredder/internal/nn"
	"shredder/internal/tensor"
)

// quadParam builds a single parameter initialized at x0 whose loss is
// ½‖x‖²; its gradient is x itself.
func quadParam(x0 []float64) *nn.Param {
	return nn.NewParam("x", tensor.From(append([]float64(nil), x0...), len(x0)))
}

func quadGrad(p *nn.Param) {
	p.Grad.CopyFrom(p.Value)
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	p := quadParam([]float64{5, -3, 2})
	opt := NewSGD([]*nn.Param{p}, 0.1, 0, 0)
	for i := 0; i < 200; i++ {
		quadGrad(p)
		opt.Step()
	}
	if p.Value.MaxAbs() > 1e-6 {
		t.Fatalf("SGD did not converge: %v", p.Value)
	}
}

func TestSGDMomentumFasterThanPlain(t *testing.T) {
	plain := quadParam([]float64{10})
	mom := quadParam([]float64{10})
	optP := NewSGD([]*nn.Param{plain}, 0.01, 0, 0)
	optM := NewSGD([]*nn.Param{mom}, 0.01, 0.9, 0)
	for i := 0; i < 100; i++ {
		quadGrad(plain)
		optP.Step()
		quadGrad(mom)
		optM.Step()
	}
	if mom.Value.MaxAbs() >= plain.Value.MaxAbs() {
		t.Fatalf("momentum (%v) should beat plain SGD (%v) on a quadratic",
			mom.Value.MaxAbs(), plain.Value.MaxAbs())
	}
}

func TestSGDWeightDecayShrinksParams(t *testing.T) {
	p := quadParam([]float64{1})
	opt := NewSGD([]*nn.Param{p}, 0.1, 0, 0.5)
	// Zero task gradient; only decay acts.
	for i := 0; i < 10; i++ {
		p.ZeroGrad()
		opt.Step()
	}
	if v := p.Value.At(0); v >= 1 || v <= 0 {
		t.Fatalf("decayed value = %v, want in (0,1)", v)
	}
}

func TestSGDZeroesGradAfterStep(t *testing.T) {
	p := quadParam([]float64{1, 2})
	opt := NewSGD([]*nn.Param{p}, 0.1, 0.9, 0)
	quadGrad(p)
	opt.Step()
	if p.Grad.AbsSum() != 0 {
		t.Fatal("Step must zero gradients")
	}
}

func TestAdamFirstStepIsLR(t *testing.T) {
	// With bias correction, the very first Adam step is ≈ lr·sign(g).
	p := quadParam([]float64{1})
	opt := NewAdam([]*nn.Param{p}, 0.01)
	quadGrad(p)
	opt.Step()
	got := 1 - p.Value.At(0)
	if math.Abs(got-0.01) > 1e-6 {
		t.Fatalf("first Adam step = %v, want ~0.01", got)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p := quadParam([]float64{4, -7})
	opt := NewAdam([]*nn.Param{p}, 0.1)
	for i := 0; i < 500; i++ {
		quadGrad(p)
		opt.Step()
	}
	if p.Value.MaxAbs() > 1e-3 {
		t.Fatalf("Adam did not converge: %v", p.Value)
	}
}

func TestAdamHandlesSparseScaleDifferences(t *testing.T) {
	// Coordinates with wildly different gradient scales should converge at
	// comparable speed under Adam (per-coordinate normalization).
	p := nn.NewParam("x", tensor.From([]float64{1, 1}, 2))
	opt := NewAdam([]*nn.Param{p}, 0.05)
	for i := 0; i < 300; i++ {
		p.Grad.Set(1000*p.Value.At(0), 0)
		p.Grad.Set(0.001*p.Value.At(1), 1)
		opt.Step()
	}
	if math.Abs(p.Value.At(0)) > 0.05 {
		t.Fatalf("large-scale coordinate did not converge: %v", p.Value)
	}
	if math.Abs(p.Value.At(1)) > 0.5 {
		t.Fatalf("small-scale coordinate did not move enough: %v", p.Value)
	}
}

func TestSetLRTakesEffect(t *testing.T) {
	p := quadParam([]float64{1})
	opt := NewSGD([]*nn.Param{p}, 0.1, 0, 0)
	opt.SetLR(0)
	quadGrad(p)
	opt.Step()
	if p.Value.At(0) != 1 {
		t.Fatal("lr=0 should freeze the parameter")
	}
	if opt.LR() != 0 {
		t.Fatal("LR() should reflect SetLR")
	}
}

func TestStepDecaySchedule(t *testing.T) {
	sched := StepDecay(1.0, 0.5, 10)
	if sched(0) != 1.0 || sched(9) != 1.0 {
		t.Fatal("no decay before first interval")
	}
	if sched(10) != 0.5 {
		t.Fatalf("sched(10) = %v", sched(10))
	}
	if sched(25) != 0.25 {
		t.Fatalf("sched(25) = %v", sched(25))
	}
}

func TestExpDecaySchedule(t *testing.T) {
	sched := ExpDecay(2.0, 0.1)
	if sched(0) != 2.0 {
		t.Fatalf("sched(0) = %v", sched(0))
	}
	if got, want := sched(10), 2.0*math.Exp(-1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("sched(10) = %v, want %v", got, want)
	}
	if sched(100) >= sched(10) {
		t.Fatal("exp decay must be monotone decreasing")
	}
}

// Training a real (tiny) network must reduce the loss — an integration
// check tying optim to nn.
func TestAdamTrainsTinyNetwork(t *testing.T) {
	rng := tensor.NewRNG(50)
	net := nn.NewSequential("tiny",
		nn.NewLinear("fc1", 4, 16, rng),
		nn.NewReLU("r"),
		nn.NewLinear("fc2", 16, 3, rng),
	)
	opt := NewAdam(net.Params(), 0.01)
	// Separable synthetic data: class = argmax of first 3 inputs.
	n := 60
	x := rng.FillNormal(tensor.New(n, 4), 0, 1)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		row := x.Slice(i)
		best, bi := row.At(0), 0
		for j := 1; j < 3; j++ {
			if row.At(j) > best {
				best, bi = row.At(j), j
			}
		}
		labels[i] = bi
	}
	first := -1.0
	var last float64
	for epoch := 0; epoch < 60; epoch++ {
		plan, err := nn.Compile(net, nn.Float64)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := plan.TrainPlan()
		if err != nil {
			t.Fatal(err)
		}
		pass := tp.NewPass(nil)
		logits := pass.ForwardInto(nil, x)
		loss, grad := nn.CrossEntropy(logits, labels)
		if first < 0 {
			first = loss
		}
		last = loss
		pass.BackwardParams(grad)
		opt.Step()
	}
	if last > first/2 {
		t.Fatalf("training did not reduce loss: first %v, last %v", first, last)
	}
}
