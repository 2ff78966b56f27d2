// Package baseline implements the "accuracy-agnostic noise addition"
// comparator from the paper's Figure 1: classic Laplace-mechanism noise,
// drawn fresh per query with a scale calibrated to the activation's
// sensitivity, with no learning involved. Shredder's claim is that at
// equal noise power (equal in vivo privacy / SNR), learned noise preserves
// far more accuracy than this baseline — the benchmark harness and an
// experiment quantify exactly that gap.
package baseline

import (
	"math"

	"shredder/internal/core"
	"shredder/internal/data"
	"shredder/internal/tensor"
)

// LaplaceMechanism adds iid Laplace(0, b) noise, freshly sampled per
// query, to the transmitted activation — the standard output-perturbation
// mechanism of the differential-privacy literature applied at the cutting
// point.
type LaplaceMechanism struct {
	// Scale is the Laplace b parameter.
	Scale float64
	rng   *tensor.RNG
}

// NewLaplaceMechanism builds a mechanism with the given scale and seed.
func NewLaplaceMechanism(scale float64, seed int64) *LaplaceMechanism {
	return &LaplaceMechanism{Scale: scale, rng: tensor.NewRNG(seed)}
}

// Perturb adds fresh noise to every sample of a batched activation.
func (m *LaplaceMechanism) Perturb(a *tensor.Tensor) *tensor.Tensor {
	out := a.Clone()
	d := out.Data()
	for i := range d {
		d[i] += m.rng.Laplace(0, m.Scale)
	}
	return out
}

// ScaleForInVivo returns the Laplace scale b that produces a desired
// in vivo privacy (1/SNR) against activations with mean square power ea2:
// Var(Laplace(0,b)) = 2b², and 1/SNR = Var/ea2 ⇒ b = √(target·ea2/2).
func ScaleForInVivo(target, ea2 float64) float64 {
	if target <= 0 || ea2 <= 0 {
		return 0
	}
	return math.Sqrt(target * ea2 / 2)
}

// Result compares the baseline against Shredder at matched noise power.
type Result struct {
	// InVivo is the matched in vivo privacy level (1/SNR).
	InVivo float64
	// BaselineAcc is accuracy with no noise at all.
	BaselineAcc float64
	// LaplaceAcc is accuracy under the accuracy-agnostic mechanism.
	LaplaceAcc float64
	// ShredderAcc is accuracy under the learned noise source.
	ShredderAcc float64
}

// Compare evaluates the Laplace mechanism against a Shredder noise source on
// a test set, with the mechanism's scale calibrated so both operate at the
// source's in vivo privacy level: the mean core.Draw.Power of one draw per
// test sample, over the activation power E[a²].
func Compare(split *core.Split, ds *data.Dataset, src core.NoiseSource, seed int64) Result {
	rng := tensor.NewRNG(seed)
	batches := ds.Batches(64)
	// First pass: the source's noise, drawn and applied as the edge does —
	// accuracy with and without it, the activation power, and the power of
	// the draws that were applied.
	var ea2, power float64
	var scratch core.DrawScratch // each draw is applied before the next
	correctBase, correctLap, correctShred, n := 0, 0, 0, 0
	for _, b := range batches {
		a := split.Local(b.Images)
		ea2 += a.SqSum() / float64(a.Len())
		noisy := a.Clone()
		for i := 0; i < noisy.Dim(0); i++ {
			d := src.DrawInto(&scratch, rng)
			power += d.Power(a.Slice(i))
			d.ApplyInPlace(noisy.Slice(i))
		}
		correctBase += correct(split.RemoteInfer(a), b.Labels)
		correctShred += correct(split.RemoteInfer(noisy), b.Labels)
		n += len(b.Labels)
	}
	var res Result
	if n == 0 {
		return res
	}
	ea2 /= float64(len(batches))
	res.InVivo = power / float64(n) / ea2
	// Second pass: the Laplace mechanism at the matched scale.
	mech := NewLaplaceMechanism(ScaleForInVivo(res.InVivo, ea2), seed+1)
	for _, b := range batches {
		correctLap += correct(split.RemoteInfer(mech.Perturb(split.Local(b.Images))), b.Labels)
	}
	res.BaselineAcc = float64(correctBase) / float64(n)
	res.LaplaceAcc = float64(correctLap) / float64(n)
	res.ShredderAcc = float64(correctShred) / float64(n)
	return res
}

// correct counts the rows of logits whose argmax is their label.
func correct(logits *tensor.Tensor, labels []int) int {
	c := 0
	for i, y := range labels {
		if logits.Slice(i).Argmax() == y {
			c++
		}
	}
	return c
}

// AdvantagePct returns Shredder's accuracy advantage over the
// accuracy-agnostic mechanism in percentage points.
func (r Result) AdvantagePct() float64 {
	return (r.ShredderAcc - r.LaplaceAcc) * 100
}
