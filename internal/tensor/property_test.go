package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

// randTensorPair builds two same-shape tensors from a seed.
func randTensorPair(seed int64) (*Tensor, *Tensor) {
	r := NewRNG(seed)
	rank := 1 + r.Intn(3)
	shape := make([]int, rank)
	for i := range shape {
		shape[i] = 1 + r.Intn(5)
	}
	a := r.FillNormal(New(shape...), 0, 2)
	b := r.FillNormal(New(shape...), 0, 2)
	return a, b
}

func TestPropertyAddSubInverse(t *testing.T) {
	f := func(seed int64) bool {
		a, b := randTensorPair(seed)
		return AllClose(Sub(Add(a, b), b), a, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAddCommutative(t *testing.T) {
	f := func(seed int64) bool {
		a, b := randTensorPair(seed)
		return Equal(Add(a, b), Add(b, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyScaleDistributesOverAdd(t *testing.T) {
	f := func(seed int64, s float64) bool {
		if math.IsNaN(s) || math.IsInf(s, 0) || math.Abs(s) > 1e6 {
			return true // skip degenerate scales
		}
		a, b := randTensorPair(seed)
		lhs := Add(a, b).Scale(s)
		rhs := Add(a.Clone().Scale(s), b.Clone().Scale(s))
		return AllClose(lhs, rhs, 1e-6*math.Max(1, math.Abs(s)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyReshapePreservesAggregates(t *testing.T) {
	f := func(seed int64) bool {
		a, _ := randTensorPair(seed)
		flat := a.Reshape(-1)
		return flat.Sum() == a.Sum() && flat.Max() == a.Max() && flat.Len() == a.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDotCauchySchwarz(t *testing.T) {
	f := func(seed int64) bool {
		a, b := randTensorPair(seed)
		lhs := Dot(a, b) * Dot(a, b)
		rhs := a.SqSum() * b.SqSum()
		return lhs <= rhs*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyVarianceShiftInvariant(t *testing.T) {
	f := func(seed int64, c float64) bool {
		if math.IsNaN(c) || math.IsInf(c, 0) || math.Abs(c) > 1e6 {
			return true
		}
		a, _ := randTensorPair(seed)
		v0 := a.Variance()
		v1 := a.Clone().Shift(c).Variance()
		return math.Abs(v0-v1) < 1e-6*math.Max(1, math.Abs(c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLaplaceMedianIsMu(t *testing.T) {
	f := func(seed int64) bool {
		r := NewRNG(seed)
		mu := r.Uniform(-3, 3)
		s := r.FillLaplace(New(4001), mu, 1)
		// Median of a Laplace is µ: about half the samples fall below.
		below := 0
		for _, v := range s.Data() {
			if v < mu {
				below++
			}
		}
		frac := float64(below) / float64(s.Len())
		return frac > 0.45 && frac < 0.55
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyIm2ColLinear(t *testing.T) {
	// Im2Col is a linear operator: im2col(x+y) == im2col(x) + im2col(y).
	f := func(seed int64) bool {
		r := NewRNG(seed)
		g := ConvGeom{InC: 1 + r.Intn(2), InH: 4 + r.Intn(4), InW: 4 + r.Intn(4),
			KH: 1 + r.Intn(3), KW: 1 + r.Intn(3), Stride: 1 + r.Intn(2), Pad: r.Intn(2)}
		if g.Validate() != nil {
			return true
		}
		x := r.FillNormal(New(g.InC, g.InH, g.InW), 0, 1)
		y := r.FillNormal(New(g.InC, g.InH, g.InW), 0, 1)
		lhs := im2col(Add(x, y), g)
		rhs := Add(im2col(x, g), im2col(y, g))
		return AllClose(lhs, rhs, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
