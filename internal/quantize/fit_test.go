package quantize

import (
	"math"
	"testing"

	"shredder/internal/tensor"
)

// laplace fills n values of a Laplace distribution of scale 1: the shape a
// learned noise gives a quantized activation.
func laplace(rng *tensor.RNG, n int) *tensor.Tensor {
	x := tensor.New(n)
	for i := range x.Data() {
		u := rng.Float64() - 0.5
		x.Data()[i] = -math.Copysign(math.Log(1-2*math.Abs(u)), u)
	}
	return x
}

// fitReference is Fit as it was written first, a pass over the sample for
// each of Mean, Std (two) and Min and Max: the pin for the two-pass Fit.
func fitReference(sample *tensor.Tensor, bits int) (Scheme, error) {
	mean, std := sample.Mean(), sample.Std()
	lo := math.Max(sample.Min(), mean-4*std)
	hi := math.Min(sample.Max(), mean+4*std)
	if hi <= lo {
		hi = lo + 1e-9
	}
	return NewScheme(bits, lo, hi)
}

func TestFitMatchesFivePassReference(t *testing.T) {
	rng := tensor.NewRNG(12)
	negZero := math.Copysign(0, -1)
	inputs := map[string][]float64{
		"laplace":        laplace(rng, 16384).Data(),
		"normal":         rng.FillNormal(tensor.New(1001), 3, 0.5).Data(),
		"constant":       tensor.New(64).Fill(2.5).Data(),
		"single":         {-7.25},
		"signed zeros":   {0, negZero, negZero, 0},
		"negative zero":  {negZero},
		"infinities":     {1, math.Inf(1), -2, math.Inf(-1)},
		"plus infinity":  {1, 2, math.Inf(1)},
		"nan first":      {math.NaN(), 1, 2},
		"nan later":      {1, math.NaN(), 2},
		"huge":           {-math.MaxFloat64, math.MaxFloat64, 0},
		"subnormal span": {5e-324, 1e-323, 0},
	}
	for name, d := range inputs {
		x := tensor.From(append([]float64(nil), d...), len(d))
		for _, bits := range []int{1, 8, 16} {
			got, err := Fit(x, bits)
			want, wantErr := fitReference(x, bits)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("%s bits=%d: error %v, reference %v", name, bits, err, wantErr)
			}
			if got.Bits != want.Bits || math.Float64bits(got.Lo) != math.Float64bits(want.Lo) ||
				math.Float64bits(got.Hi) != math.Float64bits(want.Hi) {
				t.Fatalf("%s bits=%d: Fit %+v, reference %+v", name, bits, got, want)
			}
		}
	}
}

var fitSink Scheme

// BenchmarkFit times the edge's fit of one 16 384-value Laplace-shaped
// activation (wire's BenchmarkCoded times the pack and the coder after it).
func BenchmarkFit(b *testing.B) {
	x := laplace(tensor.NewRNG(7), 16384)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Fit(x, 8)
		if err != nil {
			b.Fatal(err)
		}
		fitSink = s
	}
}
