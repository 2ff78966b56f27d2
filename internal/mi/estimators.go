package mi

import (
	"fmt"
	"math"

	"shredder/internal/tensor"
)

const log2e = 1.4426950408889634 // 1/ln 2, nats → bits

// Options configures the kNN estimators.
type Options struct {
	// K is the neighbour order (default 3). Small K lowers bias, raises
	// variance.
	K int
	// MaxSamples caps the number of points used (0 = all). Estimation is
	// O(N²D); the experiments use a few hundred points.
	MaxSamples int
	// MaxDim randomly projects samples above this dimension down to it
	// (0 = no projection). Projection approximately preserves the distance
	// geometry the kNN estimators rely on (Johnson–Lindenstrauss).
	MaxDim int
	// Seed drives subsampling and projection.
	Seed int64
	// Jitter adds iid N(0, Jitter²) to every coordinate before estimation
	// to break ties between duplicate points (default 1e-10).
	Jitter float64
}

func (o Options) withDefaults() Options {
	if o.K == 0 {
		o.K = 3
	}
	if o.Jitter == 0 {
		o.Jitter = 1e-10
	}
	return o
}

// RandomProject maps samples to dim dimensions with a seeded Gaussian
// projection matrix scaled by 1/√dim.
func RandomProject(s Samples, dim int, seed int64) Samples {
	rng := tensor.NewRNG(seed)
	proj := rng.FillNormal(tensor.New(s.D, dim), 0, 1/math.Sqrt(float64(dim)))
	x := tensor.MatMul(tensor.From(s.X, s.N, s.D), proj)
	return NewSamples(x.Data(), s.N, dim)
}

// logUnitBallVolume returns ln V_d of the d-dimensional unit Euclidean
// ball: V_d = π^{d/2} / Γ(d/2 + 1).
func logUnitBallVolume(d int) float64 {
	lg, _ := math.Lgamma(float64(d)/2 + 1)
	return float64(d)/2*math.Log(math.Pi) - lg
}

// klEntropyRaw estimates the differential entropy H(X) in bits of samples
// already preprocessed, with the Kozachenko–Leonenko k-NN estimator:
//
//	H ≈ ψ(N) − ψ(k) + ln V_d + (d/N)·Σᵢ ln εᵢ        (nats)
//
// where εᵢ is the distance from sample i to its k-th nearest neighbour.
func klEntropyRaw(s Samples, k int) float64 {
	if s.N <= k {
		panic(fmt.Sprintf("mi: need more than K=%d samples, have %d", k, s.N))
	}
	eps := kthNNDistances(s, k)
	sumLog := 0.0
	for _, e := range eps {
		if e <= 0 {
			e = 1e-300
		}
		sumLog += math.Log(e)
	}
	n := float64(s.N)
	d := float64(s.D)
	nats := Digamma(n) - Digamma(float64(k)) + logUnitBallVolume(s.D) + d/n*sumLog
	return nats * log2e
}

func subsetRows(s Samples, idx []int) Samples {
	x := make([]float64, len(idx)*s.D)
	for i, j := range idx {
		copy(x[i*s.D:], s.Row(j))
	}
	return NewSamples(x, len(idx), s.D)
}

func jitter(s Samples, sigma float64, seed int64) Samples {
	rng := tensor.NewRNG(seed)
	x := make([]float64, len(s.X))
	copy(x, s.X)
	for i := range x {
		x[i] += rng.Normal(0, sigma)
	}
	return NewSamples(x, s.N, s.D)
}

// MutualInformationCalibrated estimates I(X;Y) in bits with a permutation
// baseline: Î_cal = Î(X;Y) − Î(X;Y_perm), where Y_perm is Y with rows
// shuffled to destroy the pairing. Since the marginal entropies cancel,
// this reduces to
//
//	Î_cal = Ĥ(X, Y_perm) − Ĥ(X, Y)
//
// with Kozachenko–Leonenko joint entropies. The baseline removes the large
// dimensionality-dependent bias of the raw 3-entropy construction (which
// can report negative values for strongly dependent high-dimensional data
// at realistic sample counts), yielding a non-negative-in-expectation
// dependence measure that is zero for independent pairs. This is the
// estimator the experiment harness reports as "MI" for Table 1/Figures 3,
// 5, 6; see EXPERIMENTS.md for the calibration discussion.
func MutualInformationCalibrated(x, y Samples, o Options) float64 {
	o = o.withDefaults()
	if x.N != y.N {
		panic(fmt.Sprintf("mi: paired sample count mismatch %d vs %d", x.N, y.N))
	}
	rng := tensor.NewRNG(o.Seed + 43)
	if o.MaxSamples > 0 && x.N > o.MaxSamples {
		idx := rng.Perm(x.N)[:o.MaxSamples]
		x = subsetRows(x, idx)
		y = subsetRows(y, idx)
	}
	if o.MaxDim > 0 {
		if x.D > o.MaxDim {
			x = RandomProject(x, o.MaxDim, o.Seed+47)
		}
		if y.D > o.MaxDim {
			y = RandomProject(y, o.MaxDim, o.Seed+53)
		}
	}
	if o.Jitter > 0 {
		x = jitter(x, o.Jitter, o.Seed+59)
		y = jitter(y, o.Jitter, o.Seed+61)
	}
	perm := rng.Perm(y.N)
	yPerm := subsetRows(y, perm)
	hJoint := klEntropyRaw(Concat(x, y), o.K)
	hBase := klEntropyRaw(Concat(x, yPerm), o.K)
	return hBase - hJoint
}
