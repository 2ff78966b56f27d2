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

// ForwardT implements Layer: y = x·Wᵀ + b, taping the flattened input.
func (l *Linear) ForwardT(tape *Tape, x *tensor.Tensor, train bool) *tensor.Tensor {
	checkBatched(l.name, x)
	x2 := x.Reshape(x.Dim(0), -1)
	if x2.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: %s expects %d inputs, got %d", l.name, l.In, x2.Dim(1)))
	}
	tape.push(l, x2)
	return l.compute(x2)
}

// compute reads only the layer's parameters, never mutable layer state.
func (l *Linear) compute(x2 *tensor.Tensor) *tensor.Tensor {
	n := x2.Dim(0)
	out := tensor.MatMulT2(x2, l.W.Value) // [N, Out]
	od := out.Data()
	bd := l.B.Value.Data()
	for i := 0; i < n; i++ {
		row := od[i*l.Out:]
		for j := 0; j < l.Out; j++ {
			row[j] += bd[j]
		}
	}
	return out
}

// BackwardT implements Layer. Under FrozenParams the dW GEMM and bias
// reduction are skipped: only ∂loss/∂input is produced.
func (l *Linear) BackwardT(tape *Tape, grad *tensor.Tensor) *tensor.Tensor {
	x2 := tape.pop(l).(*tensor.Tensor)
	n := x2.Dim(0)
	g2 := grad.Reshape(n, l.Out)
	if !tape.frozen() {
		l.W.Grad.AddInPlace(tensor.MatMulT1(g2, x2)) // [Out, In]
		gd := g2.Data()
		bg := l.B.Grad.Data()
		for i := 0; i < n; i++ {
			row := gd[i*l.Out:]
			for j := 0; j < l.Out; j++ {
				bg[j] += row[j]
			}
		}
	}
	return tensor.MatMul(g2, l.W.Value) // [N, In]
}

// MACs returns the multiply-accumulate count of one forward pass over a
// single sample.
func (l *Linear) MACs(in []int) int64 { return int64(l.In) * int64(l.Out) }
