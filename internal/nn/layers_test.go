package nn

import (
	"math"
	"testing"

	"shredder/internal/tensor"
)

func TestConv2DKnownValues(t *testing.T) {
	rng := tensor.NewRNG(1)
	c := NewConv2D("c", 1, 1, 2, 2, 1, 0, rng)
	// Kernel = [[1,2],[3,4]], bias = 10.
	c.W.Value.CopyFrom(tensor.From([]float64{1, 2, 3, 4}, 1, 4))
	c.B.Value.Fill(10)
	x := tensor.From([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	out := c.ForwardT(nil, x, false)
	// window(0,0)=1+4+12+20=37, +10=47, etc.
	want := tensor.From([]float64{47, 57, 77, 87}, 1, 1, 2, 2)
	if !tensor.AllClose(out, want, 1e-12) {
		t.Fatalf("conv out = %v, want %v", out, want)
	}
}

func TestConv2DOutShape(t *testing.T) {
	rng := tensor.NewRNG(2)
	c := NewConv2D("c", 3, 8, 5, 5, 1, 2, rng)
	got := c.OutShape([]int{3, 32, 32})
	if !tensor.ShapeEq(got, []int{8, 32, 32}) {
		t.Fatalf("OutShape = %v", got)
	}
}

func TestConv2DWrongChannelsPanics(t *testing.T) {
	rng := tensor.NewRNG(3)
	c := NewConv2D("c", 3, 8, 3, 3, 1, 1, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.ForwardT(nil, tensor.New(1, 2, 8, 8), false)
}

func TestConv2DMACs(t *testing.T) {
	rng := tensor.NewRNG(4)
	c := NewConv2D("c", 1, 6, 5, 5, 1, 0, rng)
	// LeNet conv1 on 28x28 pad 0: out 24x24, 6*24*24*25 MACs.
	if got := c.MACs([]int{1, 28, 28}); got != int64(6*24*24*25) {
		t.Fatalf("MACs = %d", got)
	}
}

func TestLinearKnownValues(t *testing.T) {
	rng := tensor.NewRNG(5)
	l := NewLinear("fc", 3, 2, rng)
	l.W.Value.CopyFrom(tensor.From([]float64{1, 0, -1, 2, 2, 2}, 2, 3))
	l.B.Value.CopyFrom(tensor.From([]float64{0.5, -0.5}, 2))
	x := tensor.From([]float64{1, 2, 3}, 1, 3)
	out := l.ForwardT(nil, x, false)
	want := tensor.From([]float64{1 - 3 + 0.5, 2 + 4 + 6 - 0.5}, 1, 2)
	if !tensor.AllClose(out, want, 1e-12) {
		t.Fatalf("linear out = %v, want %v", out, want)
	}
}

func TestLinearAcceptsSpatialInput(t *testing.T) {
	rng := tensor.NewRNG(6)
	l := NewLinear("fc", 12, 4, rng)
	out := l.ForwardT(nil, tensor.New(2, 3, 2, 2), false)
	if !tensor.ShapeEq(out.Shape(), []int{2, 4}) {
		t.Fatalf("out shape = %v", out.Shape())
	}
}

func TestReLUForward(t *testing.T) {
	r := NewReLU("relu")
	x := tensor.From([]float64{-1, 0, 2, -3}, 1, 4)
	out := r.ForwardT(nil, x, false)
	if !tensor.Equal(out, tensor.From([]float64{0, 0, 2, 0}, 1, 4)) {
		t.Fatalf("relu = %v", out)
	}
}

func TestMaxPoolForwardAndRouting(t *testing.T) {
	p := NewMaxPool2D("pool", 2, 2)
	x := tensor.From([]float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 1, 2, 2,
		1, 1, 2, 3,
	}, 1, 1, 4, 4)
	tape := NewTape()
	out := p.ForwardT(tape, x, true)
	want := tensor.From([]float64{4, 8, 9, 3}, 1, 1, 2, 2)
	if !tensor.Equal(out, want) {
		t.Fatalf("maxpool = %v, want %v", out, want)
	}
	// Gradient routes only to argmax positions.
	g := tensor.From([]float64{10, 20, 30, 40}, 1, 1, 2, 2)
	dx := p.BackwardT(tape, g)
	wantDx := tensor.From([]float64{
		0, 0, 0, 0,
		0, 10, 0, 20,
		30, 0, 0, 0,
		0, 0, 0, 40,
	}, 1, 1, 4, 4)
	if !tensor.Equal(dx, wantDx) {
		t.Fatalf("maxpool grad = %v, want %v", dx, wantDx)
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	rng := tensor.NewRNG(7)
	d := NewDropout("drop", 0.5, rng)
	x := tensor.New(1, 1000).Fill(1)
	evalOut := d.ForwardT(nil, x, false)
	if !tensor.Equal(evalOut, x) {
		t.Fatal("dropout must be identity at inference")
	}
	tape := NewTape()
	trainOut := d.ForwardT(tape, x, true)
	zeros := 0
	for _, v := range trainOut.Data() {
		if v == 0 {
			zeros++
		} else if math.Abs(v-2) > 1e-12 {
			t.Fatalf("survivor scaled to %v, want 2", v)
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Fatalf("dropped %d of 1000 at p=0.5", zeros)
	}
	// Backward applies the same mask.
	g := tensor.New(1, 1000).Fill(1)
	dx := d.BackwardT(tape, g)
	for i, v := range trainOut.Data() {
		if (v == 0) != (dx.Data()[i] == 0) {
			t.Fatal("backward mask does not match forward mask")
		}
	}
}

func TestDropoutInvalidP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p=1")
		}
	}()
	NewDropout("d", 1.0, tensor.NewRNG(1))
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten("flat")
	rng := tensor.NewRNG(8)
	x := rng.FillNormal(tensor.New(3, 2, 4, 4), 0, 1)
	tape := NewTape()
	y := f.ForwardT(tape, x, true)
	if !tensor.ShapeEq(y.Shape(), []int{3, 32}) {
		t.Fatalf("flatten shape = %v", y.Shape())
	}
	g := rng.FillNormal(tensor.New(3, 32), 0, 1)
	dx := f.BackwardT(tape, g)
	if !tensor.ShapeEq(dx.Shape(), []int{3, 2, 4, 4}) {
		t.Fatalf("flatten grad shape = %v", dx.Shape())
	}
}

func TestLRNReducesMagnitude(t *testing.T) {
	l := NewLocalResponseNorm("lrn", 5, 2, 1, 0.75)
	rng := tensor.NewRNG(9)
	x := rng.FillNormal(tensor.New(1, 8, 3, 3), 0, 3)
	y := l.ForwardT(nil, x, false)
	if y.MaxAbs() >= x.MaxAbs() {
		t.Fatal("LRN with k>1 should shrink activations")
	}
	if !y.AllFinite() {
		t.Fatal("LRN produced non-finite values")
	}
}

// Softmax is SoftmaxInto into a fresh tensor.
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	return SoftmaxInto(tensor.New(logits.Dim(0), logits.Dim(1)), logits)
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := tensor.NewRNG(10)
	logits := rng.FillNormal(tensor.New(6, 10), 0, 5)
	p := Softmax(logits)
	for i := 0; i < 6; i++ {
		if s := p.Slice(i).Sum(); math.Abs(s-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, s)
		}
		if p.Slice(i).Min() < 0 {
			t.Fatal("negative probability")
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	logits := tensor.From([]float64{1000, 1001, 999}, 1, 3)
	p := Softmax(logits)
	if !p.AllFinite() {
		t.Fatal("softmax overflowed on large logits")
	}
	if math.Abs(p.Sum()-1) > 1e-12 {
		t.Fatalf("softmax sum = %v", p.Sum())
	}
}

func TestCrossEntropyPerfectPrediction(t *testing.T) {
	logits := tensor.From([]float64{100, 0, 0, 0, 100, 0}, 2, 3)
	loss, _ := CrossEntropy(logits, []int{0, 1})
	if loss > 1e-10 {
		t.Fatalf("loss on perfect prediction = %v", loss)
	}
}

func TestCrossEntropyUniform(t *testing.T) {
	logits := tensor.New(1, 4) // all zeros → uniform
	loss, _ := CrossEntropy(logits, []int{2})
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Fatalf("uniform loss = %v, want ln4 = %v", loss, math.Log(4))
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.From([]float64{
		1, 2, 0, // pred 1
		5, 0, 0, // pred 0
		0, 0, 9, // pred 2
	}, 3, 3)
	if got := Accuracy(logits, []int{1, 0, 0}); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("accuracy = %v", got)
	}
	if Accuracy(tensor.New(0, 3), nil) != 0 {
		t.Fatal("empty batch accuracy should be 0")
	}
}

func TestSequentialNamingAndIndex(t *testing.T) {
	rng := tensor.NewRNG(11)
	s := NewSequential("net",
		NewConv2D("conv0", 1, 2, 3, 3, 1, 1, rng),
		NewReLU("relu0"),
		NewFlatten("flat"),
	)
	if s.Index("relu0") != 1 {
		t.Fatalf("Index(relu0) = %d", s.Index("relu0"))
	}
	if s.Index("nope") != -1 {
		t.Fatal("missing layer should index to -1")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate layer names must panic")
		}
	}()
	NewSequential("bad", NewReLU("a"), NewReLU("a"))
}

func TestSequentialForwardRangeComposition(t *testing.T) {
	rng := tensor.NewRNG(12)
	s := NewSequential("net",
		NewConv2D("conv0", 1, 2, 3, 3, 1, 1, rng),
		NewReLU("relu0"),
		NewMaxPool2D("pool0", 2, 2),
		NewFlatten("flat"),
		NewLinear("fc", 2*3*3, 5, rng),
	)
	x := rng.FillNormal(tensor.New(2, 1, 6, 6), 0, 1)
	full := s.ForwardT(nil, x, false)
	cut := 3
	a := s.ForwardRangeT(nil, x, 0, cut, false)
	y := s.ForwardRangeT(nil, a, cut, s.Len(), false)
	if !tensor.AllClose(full, y, 1e-12) {
		t.Fatal("ForwardRange composition != full Forward")
	}
}

func TestSequentialOutShape(t *testing.T) {
	rng := tensor.NewRNG(13)
	s := NewSequential("net",
		NewConv2D("conv0", 1, 4, 5, 5, 1, 0, rng),
		NewMaxPool2D("pool0", 2, 2),
		NewFlatten("flat"),
		NewLinear("fc", 4*12*12, 10, rng),
	)
	if got := s.OutShape([]int{1, 28, 28}); !tensor.ShapeEq(got, []int{10}) {
		t.Fatalf("OutShape = %v", got)
	}
	if got := s.OutShapeAt([]int{1, 28, 28}, 2); !tensor.ShapeEq(got, []int{4, 12, 12}) {
		t.Fatalf("OutShapeAt(2) = %v", got)
	}
}

func TestParamCountAndZeroGrad(t *testing.T) {
	rng := tensor.NewRNG(14)
	s := NewSequential("net", NewLinear("fc", 10, 5, rng))
	if got := s.ParamCount(); got != 10*5+5 {
		t.Fatalf("ParamCount = %d", got)
	}
	s.Params()[0].Grad.Fill(3)
	s.ZeroGrad()
	if s.Params()[0].Grad.Sum() != 0 {
		t.Fatal("ZeroGrad did not clear gradients")
	}
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	for _, l := range []tapeLayer{
		NewReLU("r"), NewMaxPool2D("p", 2, 2),
		NewFlatten("f"), NewLocalResponseNorm("l", 3, 1, 1, 0.5),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Backward before Forward should panic", l.Name())
				}
			}()
			l.BackwardT(NewTape(), tensor.New(1, 1))
		}()
	}
}
