// Package mi implements the mutual-information machinery behind Shredder's
// "ex vivo" privacy metric (1/MI): Kozachenko–Leonenko k-nearest-neighbour
// differential entropy, and Shannon mutual information assembled from joint
// entropies against a permutation baseline (the estimator family the paper
// uses via the ITE toolbox), with a closed-form Gaussian reference and a
// histogram estimator to test it against. All results are reported in bits.
//
// The estimators operate on sample matrices of shape [N, D]. For the very
// high-dimensional tensors that arise at AlexNet scale, Flatten and
// RandomProject reduce activations to a tractable dimension while
// approximately preserving the geometry the kNN estimators depend on.
package mi

import "math"

// Digamma returns the digamma function ψ(x) for x > 0, via the recurrence
// ψ(x) = ψ(x+1) − 1/x and the asymptotic series for large x. Accuracy is
// better than 1e-10 for x ≥ 1e-3, which covers every use in this package
// (arguments are sample counts).
func Digamma(x float64) float64 {
	if x <= 0 {
		return math.NaN()
	}
	result := 0.0
	for x < 6 {
		result -= 1 / x
		x++
	}
	// Asymptotic expansion: ψ(x) ≈ ln x − 1/(2x) − Σ B₂ₙ/(2n·x²ⁿ).
	inv := 1 / x
	inv2 := inv * inv
	result += math.Log(x) - 0.5*inv
	result -= inv2 * (1.0/12 - inv2*(1.0/120-inv2*(1.0/252-inv2*(1.0/240-inv2*(1.0/132)))))
	return result
}
