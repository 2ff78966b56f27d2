package nn

import (
	"math"
	"testing"
	"testing/quick"

	"shredder/internal/tensor"
)

func TestPropertySoftmaxShiftInvariant(t *testing.T) {
	// softmax(z + c) == softmax(z): the invariance behind the max trick.
	f := func(seed int64, c float64) bool {
		if math.IsNaN(c) || math.Abs(c) > 100 {
			return true
		}
		rng := tensor.NewRNG(seed)
		z := rng.FillNormal(tensor.New(3, 6), 0, 3)
		shifted := z.Clone().Shift(c)
		return tensor.AllClose(Softmax(z), Softmax(shifted), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCrossEntropyNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		n, m := 1+rng.Intn(4), 2+rng.Intn(6)
		logits := rng.FillNormal(tensor.New(n, m), 0, 4)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(m)
		}
		loss, grad := CrossEntropy(logits, labels)
		if loss < 0 {
			return false
		}
		// Gradient rows sum to 0 (softmax minus one-hot, both sum to 1).
		for i := 0; i < n; i++ {
			if math.Abs(grad.Slice(i).Sum()) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyReLUIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		r := NewReLU("r")
		x := rng.FillNormal(tensor.New(2, 9), 0, 2)
		once := r.ForwardT(nil, x, false)
		twice := r.ForwardT(nil, once, false)
		return tensor.Equal(once, twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLinearIsAffine(t *testing.T) {
	// f(αx + βy) == αf(x) + βf(y) − (α+β−1)·b for a linear layer.
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		l := NewLinear("fc", 5, 3, rng)
		x := rng.FillNormal(tensor.New(1, 5), 0, 1)
		y := rng.FillNormal(tensor.New(1, 5), 0, 1)
		alpha, beta := rng.Uniform(-2, 2), rng.Uniform(-2, 2)
		mix := tensor.Add(x.Clone().Scale(alpha), y.Clone().Scale(beta))
		lhs := l.ForwardT(nil, mix, false)
		fx := l.ForwardT(nil, x, false).Clone().Scale(alpha)
		fy := l.ForwardT(nil, y, false).Clone().Scale(beta)
		rhs := tensor.Add(fx, fy)
		// Correct for bias counted α+β times instead of once.
		corr := (alpha + beta - 1)
		b2 := l.B.Value.Clone().Scale(corr).Reshape(1, 3)
		rhs = tensor.Sub(rhs, b2)
		return tensor.AllClose(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
