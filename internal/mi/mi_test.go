package mi

import (
	"math"
	"testing"

	"shredder/internal/tensor"
)

func TestDigammaKnownValues(t *testing.T) {
	const gamma = 0.5772156649015329
	cases := []struct{ x, want float64 }{
		{1, -gamma},
		{2, 1 - gamma},
		{3, 1.5 - gamma},
		{0.5, -gamma - 2*math.Ln2},
		{10, 2.2517525890667214},
	}
	for _, c := range cases {
		if got := Digamma(c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Digamma(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if !math.IsNaN(Digamma(-1)) {
		t.Error("Digamma of negative should be NaN")
	}
}

func TestDigammaRecurrence(t *testing.T) {
	// ψ(x+1) = ψ(x) + 1/x must hold everywhere.
	for _, x := range []float64{0.3, 1.7, 4.2, 25} {
		lhs := Digamma(x + 1)
		rhs := Digamma(x) + 1/x
		if math.Abs(lhs-rhs) > 1e-10 {
			t.Errorf("recurrence violated at %v: %v vs %v", x, lhs, rhs)
		}
	}
}

func gaussianSamples(n, d int, sigma float64, seed int64) Samples {
	rng := tensor.NewRNG(seed)
	x := make([]float64, n*d)
	for i := range x {
		x[i] = rng.Normal(0, sigma)
	}
	return NewSamples(x, n, d)
}

func TestKLEntropyGaussian1D(t *testing.T) {
	s := gaussianSamples(2000, 1, 2, 1)
	got := KLEntropy(s, Options{K: 3})
	want := GaussianEntropy(1, 2)
	if math.Abs(got-want) > 0.15 {
		t.Fatalf("H(N(0,4)) = %v bits, want ~%v", got, want)
	}
}

func TestKLEntropyUniform2D(t *testing.T) {
	rng := tensor.NewRNG(2)
	n := 2000
	x := make([]float64, n*2)
	for i := range x {
		x[i] = rng.Uniform(0, 4)
	}
	got := KLEntropy(NewSamples(x, n, 2), Options{K: 3})
	want := UniformEntropy(2, 4)
	if math.Abs(got-want) > 0.2 {
		t.Fatalf("H(U[0,4]²) = %v bits, want ~%v", got, want)
	}
}

func TestKLEntropyScalesWithSigma(t *testing.T) {
	// H(N(0,σ²)) grows by log₂(4) = 2 bits when σ quadruples.
	h1 := KLEntropy(gaussianSamples(1500, 1, 1, 3), Options{})
	h4 := KLEntropy(gaussianSamples(1500, 1, 4, 4), Options{})
	if diff := h4 - h1; math.Abs(diff-2) > 0.3 {
		t.Fatalf("entropy gap = %v bits, want ~2", diff)
	}
}

// correlatedPairs draws (x, y) with y = ρx + √(1−ρ²)·z.
func correlatedPairs(n int, rho float64, seed int64) (Samples, Samples) {
	rng := tensor.NewRNG(seed)
	x := make([]float64, n)
	y := make([]float64, n)
	c := math.Sqrt(1 - rho*rho)
	for i := 0; i < n; i++ {
		x[i] = rng.Normal(0, 1)
		y[i] = rho*x[i] + c*rng.Normal(0, 1)
	}
	return NewSamples(x, n, 1), NewSamples(y, n, 1)
}

func TestCalibratedMIGaussianReference(t *testing.T) {
	x, y := correlatedPairs(1500, 0.9, 20)
	got := MutualInformationCalibrated(x, y, Options{K: 3, Seed: 1})
	want := GaussianMI(0.9)
	if math.Abs(got-want) > 0.3 {
		t.Fatalf("calibrated MI at rho=0.9: got %v, want ~%v", got, want)
	}
}

func TestCalibratedMIIndependentNearZero(t *testing.T) {
	x := gaussianSamples(1000, 3, 1, 21)
	y := gaussianSamples(1000, 3, 1, 22)
	if got := MutualInformationCalibrated(x, y, Options{K: 3, Seed: 2}); math.Abs(got) > 0.3 {
		t.Fatalf("calibrated MI on independent = %v, want ~0", got)
	}
}

func TestCalibratedMIPositiveForDeterministicHighDim(t *testing.T) {
	// The motivating case: a high-dimensional deterministic map at modest N
	// drives the raw 3-entropy estimate negative, while the calibrated
	// estimate stays clearly positive.
	rng := tensor.NewRNG(23)
	n, d := 300, 40
	x := gaussianSamples(n, d, 1, 24)
	y := make([]float64, n*d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			v := x.Row(i)[j]
			y[i*d+j] = v*v + 0.5*v // deterministic nonlinear map
		}
	}
	ys := NewSamples(y, n, d)
	cal := MutualInformationCalibrated(x, ys, Options{K: 3, Seed: 3})
	if cal < 2 {
		t.Fatalf("calibrated MI for deterministic high-dim map = %v, want strongly positive", cal)
	}
	_ = rng
}

func TestCalibratedMIShiftInvariant(t *testing.T) {
	// Adding a constant offset to Y must not change MI — the property that
	// makes a single fixed noise tensor worthless for privacy.
	x, y := correlatedPairs(800, 0.8, 25)
	shifted := make([]float64, len(y.X))
	for i, v := range y.X {
		shifted[i] = v + 100
	}
	o := Options{K: 3, Seed: 4}
	a := MutualInformationCalibrated(x, y, o)
	b := MutualInformationCalibrated(x, NewSamples(shifted, y.N, y.D), o)
	if math.Abs(a-b) > 0.15 {
		t.Fatalf("calibrated MI not shift invariant: %v vs %v", a, b)
	}
}

func TestCalibratedMIDecreasesWithNoise(t *testing.T) {
	rng := tensor.NewRNG(26)
	n, d := 500, 6
	x := gaussianSamples(n, d, 1, 27)
	noisyAt := func(sigma float64) float64 {
		y := make([]float64, n*d)
		copy(y, x.X)
		for i := range y {
			y[i] += rng.Normal(0, sigma)
		}
		return MutualInformationCalibrated(x, NewSamples(y, n, d), Options{K: 3, Seed: 5})
	}
	lo, mid, hi := noisyAt(0.05), noisyAt(0.5), noisyAt(3)
	if !(lo > mid && mid > hi) {
		t.Fatalf("calibrated MI not monotone in noise: %v, %v, %v", lo, mid, hi)
	}
}

func TestHistogramMIAgreesOnCorrelated(t *testing.T) {
	x, y := correlatedPairs(5000, 0.9, 11)
	got := HistogramMI(x.X, y.X, 16)
	want := GaussianMI(0.9)
	// Histogram estimator is coarse; just demand the right ballpark.
	if math.Abs(got-want) > 0.35 {
		t.Fatalf("histogram MI = %v, want ~%v", got, want)
	}
	xi, yi := correlatedPairs(5000, 0.0, 12)
	if ind := HistogramMI(xi.X, yi.X, 16); ind > 0.15 {
		t.Fatalf("histogram MI on independent = %v, want ~0", ind)
	}
}

func TestRandomProjectPreservesScaleRoughly(t *testing.T) {
	s := gaussianSamples(200, 100, 1, 13)
	p := RandomProject(s, 20, 14)
	if p.N != 200 || p.D != 20 {
		t.Fatalf("projected dims %dx%d", p.N, p.D)
	}
	// Mean squared norm per retained dim should be roughly preserved:
	// E‖Px‖² = ‖x‖²·(dim/D)... with our 1/√dim scaling E‖Px‖² ≈ ‖x‖²·D/dim/D = ‖x‖²/dim·... just check same order.
	var n0, n1 float64
	for i := 0; i < s.N; i++ {
		for _, v := range s.Row(i) {
			n0 += v * v
		}
		for _, v := range p.Row(i) {
			n1 += v * v
		}
	}
	ratio := n1 / n0
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("projection norm ratio = %v, want O(1)", ratio)
	}
}

func TestOptionsSubsamplingCapsWork(t *testing.T) {
	x := gaussianSamples(500, 8, 1, 15)
	y := gaussianSamples(500, 8, 1, 16)
	// Must not panic and must produce a finite value with tight caps.
	got := MutualInformationCalibrated(x, y, Options{K: 3, MaxSamples: 100, MaxDim: 4, Seed: 1})
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("capped MI = %v", got)
	}
}

func TestMIDeterministicGivenSeed(t *testing.T) {
	x := gaussianSamples(300, 6, 1, 17)
	y := gaussianSamples(300, 6, 1, 18)
	o := Options{K: 3, MaxSamples: 150, MaxDim: 3, Seed: 42}
	a := MutualInformationCalibrated(x, y, o)
	b := MutualInformationCalibrated(x, y, o)
	if a != b {
		t.Fatalf("same options, different results: %v vs %v", a, b)
	}
}

func TestDuplicatePointsDoNotExplode(t *testing.T) {
	// All-identical samples: jitter must keep the estimator finite.
	x := NewSamples(make([]float64, 100*3), 100, 3)
	h := KLEntropy(x, Options{K: 3, Jitter: 1e-6})
	if math.IsNaN(h) || math.IsInf(h, 0) {
		t.Fatalf("entropy of duplicates = %v", h)
	}
}

func TestConcatLayout(t *testing.T) {
	a := NewSamples([]float64{1, 2, 3, 4}, 2, 2)
	b := NewSamples([]float64{10, 20}, 2, 1)
	j := Concat(a, b)
	if j.D != 3 || j.N != 2 {
		t.Fatalf("joint dims %dx%d", j.N, j.D)
	}
	want := []float64{1, 2, 10, 3, 4, 20}
	for i, v := range want {
		if j.X[i] != v {
			t.Fatalf("joint layout = %v, want %v", j.X, want)
		}
	}
}

func TestFromTensor(t *testing.T) {
	tt := tensor.From([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 2, 2, 2)
	s := FromTensor(tt)
	if s.N != 2 || s.D != 4 {
		t.Fatalf("FromTensor dims %dx%d", s.N, s.D)
	}
	if s.Row(1)[0] != 5 {
		t.Fatalf("FromTensor row layout wrong: %v", s.Row(1))
	}
}

func TestKthNNKnownConfiguration(t *testing.T) {
	// Points on a line at 0, 1, 3, 7: 1st NN distances are 1,1,2,4.
	s := NewSamples([]float64{0, 1, 3, 7}, 4, 1)
	got := kthNNDistances(s, 1)
	want := []float64{1, 1, 2, 4}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("kthNN = %v, want %v", got, want)
		}
	}
	// 2nd NN distances: 3,2,3,6.
	got2 := kthNNDistances(s, 2)
	want2 := []float64{3, 2, 3, 6}
	for i := range want2 {
		if math.Abs(got2[i]-want2[i]) > 1e-12 {
			t.Fatalf("2nd NN = %v, want %v", got2, want2)
		}
	}
}

func TestKOutOfRangePanics(t *testing.T) {
	s := gaussianSamples(5, 1, 1, 19)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k >= N")
		}
	}()
	kthNNDistances(s, 5)
}
