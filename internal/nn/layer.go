// Package nn implements the neural-network substrate of the Shredder
// reproduction: the layers (convolution, linear, ReLU, max pooling, dropout,
// local response normalization), a Sequential container, softmax
// cross-entropy loss, weight initialization, checkpoint I/O, and the compiler
// every pass runs through.
//
// A layer is a description — its name, its parameters, its shape rule — and
// nothing executes on it directly. Compile lowers a range of a network into
// an inference plan (compile.go); a Float64 plan's TrainPlan is its
// differentiable counterpart, whose passes give the gradient with respect to
// the range's input and, on request, with respect to its weights. Both are
// immutable once built, so one shared network serves any number of
// concurrent passes, each in its own workspace.
//
// Shredder trains its noise against frozen weights: a noise-training or
// inversion step asks only for ∂loss/∂(input of the range), which is what
// makes Shredder possible — the noise tensor is trained purely through it,
// exactly as derived in §2.1 of the paper. Pre-training is the one caller
// that asks for the weight gradients too. Both are verified against central
// finite differences in the package tests.
//
// Tensors enter a plan in batched form: [N, C, H, W] for spatial layers and
// [N, D] for dense layers, where N is the batch size.
package nn

import "shredder/internal/tensor"

// Param is a trainable parameter: a value tensor and its accumulated
// gradient. Optimizers update Value from Grad and zero Grad between steps.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam allocates a parameter with a zeroed gradient of matching shape.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape()...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is one stage of a network: what the compiler lowers.
type Layer interface {
	// Name identifies the layer within a model (e.g. "conv2"); cutting
	// points are addressed by layer name.
	Name() string
	// Params returns the layer's trainable parameters (nil if none).
	Params() []*Param
	// OutShape maps a per-sample input shape (without the batch dim) to the
	// per-sample output shape.
	OutShape(in []int) []int
}

// ParamCount returns the total number of scalar parameters in the layers.
func ParamCount(layers []Layer) int {
	n := 0
	for _, l := range layers {
		for _, p := range l.Params() {
			n += p.Value.Len()
		}
	}
	return n
}
