package core

import (
	"fmt"

	"shredder/internal/tensor"
)

// Noise-mode names shared by the facade, CLI flags, and the wire format.
const (
	ModeStored    = "stored"     // replay K trained tensors (paper §2.5 as seeded)
	ModeFitted    = "fitted"     // sample fresh additive noise from fitted distributions
	ModeFittedMul = "fitted-mul" // sample fresh (w, n): a' = a⊙w + n
)

// NoiseSource yields per-query noise for the cutting-point activation. It
// is the seam between noise *training* (which produces a Collection of
// trained tensors) and noise *serving*: the stored Collection satisfies it
// by replaying members, and FittedCollection satisfies it by sampling
// fresh noise from distributions fitted to those members. Whatever applies
// noise at inference time — the one Edge behind the facade's Classify, the
// edge client and the fleet pool, and the measurement code (Evaluate, the
// attacks, the baseline) — speaks this interface and is agnostic to which
// mode is deployed.
//
// Implementations are safe for concurrent use as long as callers serialize
// the RNG and the scratch they pass in.
type NoiseSource interface {
	// NoiseShape is the per-sample activation shape the noise matches.
	NoiseShape() []int
	// Mode names the deployment mode (ModeStored, ModeFitted, ModeFittedMul).
	Mode() string
	// DrawInto produces one per-query noise realization from rng — the one
	// way to draw. A source that samples fresh noise writes it into s's
	// buffers, and the Draw is then valid until the next draw on s; a nil s
	// draws into fresh tensors. A stored collection returns its members
	// themselves (shared: not to be modified) and leaves s alone.
	DrawInto(s *DrawScratch, rng *tensor.RNG) Draw
	// MeanInVivo reports the average recorded in vivo privacy (1/SNR) of
	// the underlying trained members; 0 when nothing was recorded.
	MeanInVivo() float64
}

// Draw is one per-query noise realization: the transformation
// a' = a⊙Weight + Noise (Weight nil means the identity, i.e. the paper's
// additive a' = a + n). Member attributes the draw to a stored collection
// member for telemetry; fresh per-query samples carry Member = -1.
type Draw struct {
	// Member is the stored-collection member index, or -1 when the noise
	// was sampled fresh from a fitted distribution.
	Member int
	// Weight is the multiplicative per-element weight w, nil for additive
	// sources.
	Weight *tensor.Tensor
	// Noise is the additive component n.
	Noise *tensor.Tensor
}

// ApplyInPlace perturbs one per-sample activation: a ← a⊙w + n. Only the
// volumes must agree, so a single-sample batch [1, ...] is perturbed as it
// is, without a per-sample view. The draw's tensors are never modified; for
// stored draws they are shared collection members, so the activation is the
// only tensor written.
func (d Draw) ApplyInPlace(a *tensor.Tensor) *tensor.Tensor {
	ad := a.Data()
	for _, t := range []*tensor.Tensor{d.Weight, d.Noise} {
		if t != nil && t.Len() != len(ad) {
			panic(fmt.Sprintf("core: draw of %d values applied to activation of %d", t.Len(), len(ad)))
		}
	}
	// Two passes, the product then the sum: one fused loop could be
	// contracted into a multiply-add on some targets and change the bits.
	if d.Weight != nil {
		for i, w := range d.Weight.Data() {
			ad[i] *= w
		}
	}
	if d.Noise != nil {
		for i, n := range d.Noise.Data() {
			ad[i] += n
		}
	}
	return a
}

// Multiplicative reports whether the draw carries a weight tensor.
func (d Draw) Multiplicative() bool { return d.Weight != nil }

// Power is the numerator of the draw's in vivo privacy on one clean
// per-sample activation: Var(n) for an additive draw, and for a
// multiplicative one the realized perturbation power E[(a⊙w + n − a)²] — the
// weight scales the signal, so the noise variance alone no longer measures
// the distortion.
func (d Draw) Power(clean *tensor.Tensor) float64 {
	if d.Weight == nil {
		return d.Noise.Variance()
	}
	ad, wd, nd := clean.Data(), d.Weight.Data(), d.Noise.Data()
	s := 0.0
	for i := range ad {
		p := ad[i]*(wd[i]-1) + nd[i]
		s += p * p
	}
	return s / float64(len(ad))
}

// DrawScratch holds reusable per-draw buffers for sources that sample
// fresh noise per query. Whoever draws in a loop keeps one scratch per RNG
// (an Edge guards both with one mutex) and passes it to DrawInto; the
// returned Draw's tensors alias the scratch, so they are valid only
// until the next draw — apply the noise before drawing again. The zero
// value is ready to use; buffers are allocated lazily on first draw and
// re-used for every query after, keeping fitted serving allocation-free
// on the hot path.
type DrawScratch struct {
	noise  *tensor.Tensor
	weight *tensor.Tensor
}

// DrawReusing is src.DrawInto(s, rng) in the spelling the benchmark calls
// (bench/layers.go), from before DrawInto was the interface's method.
func DrawReusing(src NoiseSource, s *DrawScratch, rng *tensor.RNG) Draw { return src.DrawInto(s, rng) }
