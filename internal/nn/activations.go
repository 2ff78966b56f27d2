package nn

import (
	"shredder/internal/tensor"
)

// ReLU applies max(0, x) elementwise. The backward pass gates the gradient
// by the sign of the forward input, recovered from the taped output (out>0
// exactly where in>0), so the tape costs no extra storage.
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

// ForwardT implements Layer.
func (r *ReLU) ForwardT(tape *Tape, x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	xd, od := x.Data(), out.Data()
	for i, v := range xd {
		if v > 0 {
			od[i] = v
		}
	}
	tape.push(r, out)
	return out
}

// BackwardT implements Layer.
func (r *ReLU) BackwardT(tape *Tape, grad *tensor.Tensor) *tensor.Tensor {
	fwd := tape.pop(r).(*tensor.Tensor)
	if grad.Len() != fwd.Len() {
		panic("nn: ReLU backward grad size mismatch")
	}
	out := tensor.New(grad.Shape()...)
	gd, od, fd := grad.Data(), out.Data(), fwd.Data()
	for i, v := range fd {
		if v > 0 {
			od[i] = gd[i]
		}
	}
	return out
}

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

// ForwardT implements Layer: a reshape, taping the original shape.
func (f *Flatten) ForwardT(tape *Tape, x *tensor.Tensor, train bool) *tensor.Tensor {
	checkBatched(f.name, x)
	tape.push(f, append([]int(nil), x.Shape()...))
	return x.Reshape(x.Dim(0), -1)
}

// BackwardT implements Layer.
func (f *Flatten) BackwardT(tape *Tape, grad *tensor.Tensor) *tensor.Tensor {
	shape := tape.pop(f).([]int)
	return grad.Reshape(shape...)
}

// Dropout zeroes a fraction p of activations during training and scales the
// survivors by 1/(1-p) (inverted dropout); it is the identity at inference.
// Training-mode randomness comes from the tape's RNG when it carries one
// (so concurrent training runs draw independent reproducible streams), and
// from the layer's construction RNG otherwise.
type Dropout struct {
	name string
	P    float64
	rng  *tensor.RNG
}

// NewDropout constructs a dropout layer with drop probability p.
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

// ForwardT implements Layer. A nil mask on the tape marks an identity
// (inference-mode) pass.
func (d *Dropout) ForwardT(tape *Tape, x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.P == 0 {
		tape.push(d, (*tensor.Tensor)(nil))
		return x
	}
	rng := tape.rng(d.rng)
	out := tensor.New(x.Shape()...)
	mask := tensor.GetScratch(x.Shape()...)
	md := mask.Data()
	keep := 1 / (1 - d.P)
	xd, od := x.Data(), out.Data()
	for i := range xd {
		if rng.Float64() < d.P {
			md[i] = 0
		} else {
			md[i] = keep
			od[i] = xd[i] * keep
		}
	}
	tape.push(d, mask)
	return out
}

// BackwardT implements Layer.
func (d *Dropout) BackwardT(tape *Tape, grad *tensor.Tensor) *tensor.Tensor {
	mask := tape.pop(d).(*tensor.Tensor)
	if mask == nil { // inference-mode forward: identity
		return grad
	}
	out := tensor.New(grad.Shape()...)
	gd, od, md := grad.Data(), out.Data(), mask.Data()
	for i := range gd {
		od[i] = gd[i] * md[i]
	}
	tensor.PutScratch(mask)
	return out
}
