package mi

import (
	"fmt"
	"math"

	"shredder/internal/tensor"
)

// What the k-NN estimators are tested through and against: the entropy
// estimator with its preprocessing, closed forms, and an independent
// histogram estimator.

// KLEntropy is the Kozachenko–Leonenko entropy (klEntropyRaw) of s after the
// estimator's own preprocessing, in bits.
func KLEntropy(s Samples, o Options) float64 {
	o = o.withDefaults()
	return klEntropyRaw(prepare(s, o, 1), o.K)
}

// prepare applies subsampling, projection and jitter per Options.
func prepare(s Samples, o Options, seedOffset int64) Samples {
	rng := tensor.NewRNG(o.Seed + seedOffset)
	if o.MaxSamples > 0 && s.N > o.MaxSamples {
		idx := rng.Perm(s.N)[:o.MaxSamples]
		x := make([]float64, o.MaxSamples*s.D)
		for i, j := range idx {
			copy(x[i*s.D:], s.Row(j))
		}
		s = NewSamples(x, o.MaxSamples, s.D)
	}
	if o.MaxDim > 0 && s.D > o.MaxDim {
		s = RandomProject(s, o.MaxDim, rng.Int63())
	}
	if o.Jitter > 0 {
		x := make([]float64, len(s.X))
		copy(x, s.X)
		for i := range x {
			x[i] += rng.Normal(0, o.Jitter)
		}
		s = NewSamples(x, s.N, s.D)
	}
	return s
}

// GaussianMI returns the closed-form mutual information, in bits, of a
// bivariate Gaussian with correlation rho: I = −½·log₂(1−ρ²). It is the
// analytic reference the estimator tests validate against.
func GaussianMI(rho float64) float64 {
	if rho <= -1 || rho >= 1 {
		panic(fmt.Sprintf("mi: correlation %v out of (-1,1)", rho))
	}
	return -0.5 * math.Log2(1-rho*rho)
}

// GaussianEntropy returns the differential entropy, in bits, of a
// d-dimensional isotropic Gaussian with per-coordinate variance sigma²:
// H = d/2·log₂(2πe·σ²).
func GaussianEntropy(d int, sigma float64) float64 {
	return float64(d) / 2 * math.Log2(2*math.Pi*math.E*sigma*sigma)
}

// UniformEntropy returns the differential entropy, in bits, of a
// d-dimensional uniform distribution on [0, w]^d: H = d·log₂(w).
func UniformEntropy(d int, w float64) float64 {
	return float64(d) * math.Log2(w)
}

// HistogramMI estimates I(X;Y) in bits for paired scalar samples by
// discretizing each variable into bins equal-width bins. It is a coarse,
// assumption-free cross-check for the kNN estimators on 1-D data.
func HistogramMI(x, y []float64, bins int) float64 {
	if len(x) != len(y) {
		panic("mi: HistogramMI needs paired samples")
	}
	if bins < 2 {
		panic("mi: HistogramMI needs at least 2 bins")
	}
	n := len(x)
	if n == 0 {
		return 0
	}
	bx := discretize(x, bins)
	by := discretize(y, bins)
	joint := make([]float64, bins*bins)
	px := make([]float64, bins)
	py := make([]float64, bins)
	inv := 1 / float64(n)
	for i := 0; i < n; i++ {
		joint[bx[i]*bins+by[i]] += inv
		px[bx[i]] += inv
		py[by[i]] += inv
	}
	mi := 0.0
	for i := 0; i < bins; i++ {
		for j := 0; j < bins; j++ {
			p := joint[i*bins+j]
			if p > 0 {
				mi += p * math.Log2(p/(px[i]*py[j]))
			}
		}
	}
	return mi
}

func discretize(x []float64, bins int) []int {
	lo, hi := x[0], x[0]
	for _, v := range x[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	out := make([]int, len(x))
	if hi == lo {
		return out
	}
	scale := float64(bins) / (hi - lo)
	for i, v := range x {
		b := int((v - lo) * scale)
		if b >= bins {
			b = bins - 1
		}
		out[i] = b
	}
	return out
}
