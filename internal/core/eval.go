package core

import (
	"shredder/internal/data"
	"shredder/internal/mi"
	"shredder/internal/privacy"
	"shredder/internal/tensor"
)

// EvalResult summarizes an evaluation of a split + noise collection on a
// test set — one row of the paper's Table 1.
type EvalResult struct {
	// BaselineAcc is accuracy of the intact network without noise.
	BaselineAcc float64
	// NoisyAcc is accuracy with a noise tensor sampled per batch.
	NoisyAcc float64
	// AccLossPct is the accuracy loss in percentage points.
	AccLossPct float64
	// OrigMI and ShreddedMI are I(x; a) and I(x; a′) in bits.
	OrigMI, ShreddedMI float64
	// MILossBits and MILossPct quantify the information loss.
	MILossBits, MILossPct float64
	// InVivo is the mean in vivo privacy over the evaluation batches.
	InVivo float64
}

// EvalConfig controls Evaluate.
type EvalConfig struct {
	// BatchSize for the accuracy passes (default 32).
	BatchSize int
	// MI configures the mutual-information estimator.
	MI mi.Options
	// Seed drives the per-batch noise sampling.
	Seed int64
}

func (c EvalConfig) withDefaults() EvalConfig {
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.MI.MaxSamples == 0 {
		c.MI.MaxSamples = 256
	}
	return c
}

// Activations runs the local part over the whole dataset and returns the
// batched activations [N, ...]. When a noise source is given, an
// independently drawn perturbation is applied to every sample, in row order
// — the paper's inference-time sampling (§2.5). Note that a single fixed
// noise tensor is a constant shift and leaves mutual information unchanged;
// the privacy comes from per-query draws.
func Activations(split *Split, ds *data.Dataset, src NoiseSource, batchSize int, rng *tensor.RNG) *tensor.Tensor {
	out := tensor.New(append([]int{ds.N()}, split.ActivationShape()...)...)
	off := 0
	for _, b := range ds.Batches(batchSize) {
		off += copy(out.Data()[off:], split.Local(b.Images).Data())
	}
	return shred(out, src, rng)
}

// shred applies one draw of src to every row of acts in row order, in place,
// and returns acts; a nil source leaves it as it is.
func shred(acts *tensor.Tensor, src NoiseSource, rng *tensor.RNG) *tensor.Tensor {
	if src != nil {
		var scratch DrawScratch // each draw is applied before the next
		for i := 0; i < acts.Dim(0); i++ {
			src.DrawInto(&scratch, rng).ApplyInPlace(acts.Slice(i))
		}
	}
	return acts
}

// Evaluate measures baseline/noisy accuracy, in vivo privacy, and the
// original vs shredded mutual information of a split with a noise source
// on a test set. Additive sources report the classic 1/SNR =
// Var(noise)/E[a²]; multiplicative draws report the realized perturbation
// power E[(a′−a)²]/E[a²], since the weight scales the signal and the noise
// variance alone no longer measures the distortion. It draws as Edge.Step
// does, without an Edge: it needs the clean and the noisy activation of one
// sample side by side. L runs over the test set once — the accuracy pass
// keeps its clean activations for the two MI estimates.
func Evaluate(split *Split, ds *data.Dataset, src NoiseSource, cfg EvalConfig) EvalResult {
	cfg = cfg.withDefaults()
	rng := tensor.NewRNG(cfg.Seed)
	var res EvalResult

	clean := tensor.New(append([]int{ds.N()}, split.ActivationShape()...)...)
	correctBase, correctNoisy, n, off := 0, 0, 0, 0
	var inVivoSum float64
	var scratch DrawScratch // a draw is applied, or measured, before the next
	batches := ds.Batches(cfg.BatchSize)
	for _, b := range batches {
		a := split.Local(b.Images)
		off += copy(clean.Data()[off:], a.Data())
		base := split.RemoteInfer(a)
		// Per-sample noise draws, as at real inference time (§2.5).
		aPrime := a.Clone()
		var lastDraw Draw
		for i := 0; i < aPrime.Dim(0); i++ {
			lastDraw = src.DrawInto(&scratch, rng)
			lastDraw.ApplyInPlace(aPrime.Slice(i))
		}
		noisy := split.RemoteInfer(aPrime)
		for i, y := range b.Labels {
			if base.Slice(i).Argmax() == y {
				correctBase++
			}
			if noisy.Slice(i).Argmax() == y {
				correctNoisy++
			}
		}
		if lastDraw.Multiplicative() {
			if ea2 := a.SqSum() / float64(a.Len()); ea2 > 0 {
				inVivoSum += meanSqDiff(aPrime, a) / ea2
			}
		} else {
			inVivoSum += privacy.InVivo(a, lastDraw.Noise)
		}
		n += len(b.Labels)
	}
	if n > 0 {
		res.BaselineAcc = float64(correctBase) / float64(n)
		res.NoisyAcc = float64(correctNoisy) / float64(n)
		res.InVivo = inVivoSum / float64(len(batches))
	}
	res.AccLossPct = privacy.AccuracyLoss(res.BaselineAcc, res.NoisyAcc)

	// A second set of N draws, at the stream positions after the first.
	shredded := shred(clean.Clone(), src, rng)
	res.OrigMI = privacy.MeasureMI(ds.Images, clean, cfg.MI)
	miOpts := cfg.MI
	miOpts.Seed++ // decorrelate subsampling between the two estimates
	res.ShreddedMI = privacy.MeasureMI(ds.Images, shredded, miOpts)
	bits, frac := privacy.InformationLoss(res.OrigMI, res.ShreddedMI)
	res.MILossBits = bits
	res.MILossPct = frac * 100
	return res
}
