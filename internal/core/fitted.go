package core

import (
	"fmt"

	"shredder/internal/noisedist"
	"shredder/internal/tensor"
)

// FittedCollection is the paper's "collection of noise distributions"
// taken literally: instead of storing K trained tensors and replaying
// them, it stores distributions distilled from those tensors (per-member
// quantile sketches, order permutations, and (loc, scale) summaries —
// see noisedist.FitMixture) and samples *fresh* noise per query. Memory
// is strictly below the stored collection's (no float64 tensors
// resident), and the effective collection cardinality is unbounded: no
// two queries ever see the same noise.
//
// When Weight is non-nil the source is the multiplicative Shredder
// variant a' = a⊙w + n: a per-element weight tensor was trained alongside
// the noise and is fitted and sampled the same way.
type FittedCollection struct {
	// Shape is the per-sample activation shape every sample matches.
	Shape []int
	// Noise is the fitted additive-noise distribution.
	Noise *noisedist.Fitted
	// Weight is the fitted multiplicative-weight distribution, nil for
	// the additive mode.
	Weight *noisedist.Fitted
	// InVivo carries the source members' recorded in vivo privacy, for
	// reporting parity with the stored collection.
	InVivo []float64
}

// FitCollection fits distributions to a trained collection: per member,
// a quantile sketch, its spatial ordering, and a (loc, scale) summary,
// for the noise tensors and — when the collection was trained
// multiplicatively — the weight tensors. kind selects the parametric
// family of the summaries (noisedist.Laplace is the default fit).
func FitCollection(col *Collection, kind noisedist.Kind) (*FittedCollection, error) {
	if col == nil || col.Len() == 0 {
		return nil, fmt.Errorf("%w: cannot fit distributions", ErrCollectionEmpty)
	}
	nf, err := noisedist.FitMixture(col.Members, kind)
	if err != nil {
		return nil, fmt.Errorf("core: fit noise distribution: %w", err)
	}
	fc := &FittedCollection{
		Shape:  append([]int(nil), col.Shape...),
		Noise:  nf,
		InVivo: append([]float64(nil), col.InVivo...),
	}
	if len(col.Weights) > 0 {
		if len(col.Weights) != len(col.Members) {
			return nil, fmt.Errorf("core: collection has %d weights for %d members", len(col.Weights), len(col.Members))
		}
		wf, err := noisedist.FitMixture(col.Weights, kind)
		if err != nil {
			return nil, fmt.Errorf("core: fit weight distribution: %w", err)
		}
		fc.Weight = wf
	}
	return fc, nil
}

// NoiseShape returns the per-sample activation shape.
func (c *FittedCollection) NoiseShape() []int { return c.Shape }

// Mode reports ModeFitted or ModeFittedMul.
func (c *FittedCollection) Mode() string {
	if c.Weight != nil {
		return ModeFittedMul
	}
	return ModeFitted
}

// Components returns the mixture size (the number of trained members the
// fit saw).
func (c *FittedCollection) Components() int { return c.Noise.Components() }

// DrawInto samples one fresh noise realization (and, in the multiplicative
// mode, one fresh weight) into s's buffers: the returned Draw aliases the
// scratch and is valid until the next DrawInto on it, and a warm scratch
// makes the draw allocation-free. A nil scratch draws into fresh tensors.
// Member is -1: the noise never existed before this query and is
// attributable to the distribution, not a stored member. The multiplicative
// pair is drawn from one member's distributions — training co-adapts (w, n),
// and sampling them from different members was measured to cost ~28 accuracy
// points at the full LeNet cut.
func (c *FittedCollection) DrawInto(s *DrawScratch, rng *tensor.RNG) Draw {
	if s == nil {
		s = &DrawScratch{}
	}
	if s.noise == nil || !tensor.ShapeEq(s.noise.Shape(), c.Noise.Shape) {
		s.noise = tensor.New(c.Noise.Shape...)
	}
	if c.Weight == nil {
		c.Noise.SampleInto(s.noise, rng)
		return Draw{Member: -1, Noise: s.noise}
	}
	if s.weight == nil || !tensor.ShapeEq(s.weight.Shape(), c.Weight.Shape) {
		s.weight = tensor.New(c.Weight.Shape...)
	}
	m := 0
	if k := c.Noise.Components(); k > 1 {
		m = rng.Intn(k)
	}
	c.Noise.SampleMemberInto(m, s.noise, rng)
	c.Weight.SampleMemberInto(m, s.weight, rng)
	return Draw{Member: -1, Noise: s.noise, Weight: s.weight}
}

// MeanInVivo returns the average recorded in vivo privacy of the source
// members, 0 when none was recorded (same contract as Collection).
func (c *FittedCollection) MeanInVivo() float64 {
	if len(c.InVivo) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range c.InVivo {
		s += v
	}
	return s / float64(len(c.InVivo))
}

// MemoryBytes is the resident size of the fitted parameters — the number
// the stored-vs-fitted accounting compares against 8 bytes × members ×
// elements for a stored collection.
func (c *FittedCollection) MemoryBytes() int {
	n := c.Noise.MemoryBytes()
	if c.Weight != nil {
		n += c.Weight.MemoryBytes()
	}
	return n
}

// validate checks structural invariants, before encoding and after
// decoding; what it finds is an ErrCollectionCorrupt.
func (c *FittedCollection) validate() error {
	if err := c.inconsistency(); err != nil {
		return fmt.Errorf("%w: %v", ErrCollectionCorrupt, err)
	}
	return nil
}

func (c *FittedCollection) inconsistency() error {
	if c.Noise == nil {
		return fmt.Errorf("fitted collection has no noise distribution")
	}
	if err := c.Noise.Validate(); err != nil {
		return err
	}
	if !tensor.ShapeEq(c.Noise.Shape, c.Shape) {
		return fmt.Errorf("noise distribution shape %v != collection shape %v", c.Noise.Shape, c.Shape)
	}
	if !allFinite(c.InVivo) {
		return fmt.Errorf("an in vivo value is not a finite number")
	}
	if c.Weight != nil {
		if err := c.Weight.Validate(); err != nil {
			return err
		}
		if !tensor.ShapeEq(c.Weight.Shape, c.Shape) {
			return fmt.Errorf("weight distribution shape %v != collection shape %v", c.Weight.Shape, c.Shape)
		}
		if c.Weight.Components() != c.Noise.Components() {
			return fmt.Errorf("weight mixture has %d components, noise has %d",
				c.Weight.Components(), c.Noise.Components())
		}
	}
	return nil
}
