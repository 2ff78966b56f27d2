package nn

import (
	"fmt"

	"shredder/internal/tensor"
)

// Linear is a fully-connected layer over [N, In] inputs with weights
// [Out, In] and bias [Out].
type Linear struct {
	name    string
	In, Out int
	W, B    *Param
}

// NewLinear constructs a fully-connected layer with Xavier-initialized
// weights.
func NewLinear(name string, in, out int, rng *tensor.RNG) *Linear {
	w := tensor.New(out, in)
	XavierInit(w, in, out, rng)
	return &Linear{name: name, In: in, Out: out,
		W: NewParam(name+".W", w), B: NewParam(name+".b", tensor.New(out))}
}

// Name implements Layer.
func (l *Linear) Name() string { return l.name }

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// OutShape implements Layer.
func (l *Linear) OutShape(in []int) []int {
	if tensor.Volume(in) != l.In {
		panic(fmt.Sprintf("nn: %s expects %d inputs, got shape %v", l.name, l.In, in))
	}
	return []int{l.Out}
}

// MACs returns the multiply-accumulate count of one forward pass over a
// single sample.
func (l *Linear) MACs(in []int) int64 { return int64(l.In) * int64(l.Out) }
