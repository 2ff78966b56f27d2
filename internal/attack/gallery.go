package attack

import (
	"shredder/internal/core"
	"shredder/internal/tensor"
)

// GalleryResult summarizes an identification attack: the adversary holds a
// gallery of candidate inputs (e.g. a set of known faces or documents) and,
// observing a transmitted activation, picks the candidate whose activation
// is nearest. Top1 is the fraction of observations identified exactly.
type GalleryResult struct {
	Trials int
	Hits   int
	Top1   float64
}

// GalleryIdentify runs the identification attack over the first trials
// samples of inputs, using the whole batch as the adversary's gallery.
// When src is non-nil every observation carries a draw of it, applied as the
// edge applies it (weights included), so the adversary faces the source that
// is deployed; the gallery activations are always clean (the adversary
// computes them itself with white-box access to L).
func GalleryIdentify(split *core.Split, inputs *tensor.Tensor, src core.NoiseSource, trials int, seed int64) GalleryResult {
	n := inputs.Dim(0)
	if trials > n {
		trials = n
	}
	rng := tensor.NewRNG(seed)

	// Precompute the gallery: clean activation per candidate.
	gallery := make([]*tensor.Tensor, n)
	for i := 0; i < n; i++ {
		x := inputs.Slice(i).Reshape(append([]int{1}, split.InShape...)...)
		gallery[i] = split.Local(x).Slice(0).Clone()
	}

	res := GalleryResult{Trials: trials}
	var scratch core.DrawScratch // each draw is applied before the next
	for i := 0; i < trials; i++ {
		obs := gallery[i].Clone()
		if src != nil {
			src.DrawInto(&scratch, rng).ApplyInPlace(obs)
		}
		best, bestDist := -1, 0.0
		for j := 0; j < n; j++ {
			d := tensor.Sub(obs, gallery[j]).SqSum()
			if best < 0 || d < bestDist {
				best, bestDist = j, d
			}
		}
		if best == i {
			res.Hits++
		}
	}
	if trials > 0 {
		res.Top1 = float64(res.Hits) / float64(trials)
	}
	return res
}
