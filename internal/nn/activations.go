package nn

import (
	"shredder/internal/tensor"
)

// ReLU applies max(0, x) elementwise. The backward pass gates the gradient
// by the sign of the forward input, recovered from the output (out>0 exactly
// where in>0), so a training plan keeps nothing extra for it.
type ReLU struct {
	name string
}

// NewReLU constructs a ReLU activation layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// OutShape implements Layer.
func (r *ReLU) OutShape(in []int) []int { return in }

// Flatten reshapes [N, ...] to [N, D]. It exists so that cutting points can
// fall on either side of the features/classifier boundary the paper uses.
type Flatten struct {
	name string
}

// NewFlatten constructs a flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// OutShape implements Layer.
func (f *Flatten) OutShape(in []int) []int { return []int{tensor.Volume(in)} }

// Dropout zeroes a fraction p of activations during training and scales the
// survivors by 1/(1-p) (inverted dropout); it is the identity at inference.
// Training-mode masks come from the RNG a training pass was given (so
// concurrent training runs draw independent reproducible streams), and from
// the layer's construction RNG when it was given none.
type Dropout struct {
	name string
	P    float64
	rng  *tensor.RNG
}

// NewDropout constructs a dropout layer with drop probability p whose masks
// come from rng when a training pass has none. A nil rng builds the layer
// without a generator of its own, as a shape-only network has: only passes
// given an RNG can train through it.
func NewDropout(name string, p float64, rng *tensor.RNG) *Dropout {
	if p < 0 || p >= 1 {
		panic("nn: dropout probability must be in [0,1)")
	}
	return &Dropout{name: name, P: p, rng: rng}
}

// Name implements Layer.
func (d *Dropout) Name() string { return d.name }

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// OutShape implements Layer.
func (d *Dropout) OutShape(in []int) []int { return in }
