// Package nn implements the neural-network substrate of the Shredder
// reproduction: layers with exact analytic forward and backward passes
// (convolution, linear, ReLU, pooling, dropout, local response
// normalization), a Sequential container, softmax cross-entropy loss,
// weight initialization, and checkpoint I/O.
//
// Execution is tape-based: a forward pass records the state its backward
// pass needs on an explicit per-call Tape instead of on the layer structs,
// so one shared network supports any number of concurrent forward and
// forward/backward passes (one Tape per in-flight pass). A nil tape is the
// inference path; a FrozenParams tape skips parameter gradients for
// training against a frozen network — Shredder's only training mode.
//
// Every layer computes gradients with respect to both its parameters and its
// input. The input gradient is what makes Shredder possible: the noise
// tensor is trained purely through ∂loss/∂(input of the remote network),
// exactly as derived in §2.1 of the paper. All backward passes are verified
// against central finite differences in the package tests.
//
// Tensors flow through layers in batched form: [N, C, H, W] for spatial
// layers and [N, D] for dense layers, where N is the batch size.
package nn

import (
	"fmt"

	"shredder/internal/tensor"
)

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

// Layer is one differentiable stage of a network.
//
// ForwardT and BackwardT are the primary execution surface: all
// intermediate state flows through the explicit *Tape, so a shared layer
// supports any number of concurrent in-flight passes (one tape per pass).
// ForwardT with a nil tape is the reentrant inference path — it records
// nothing and is safe for unbounded concurrent use. BackwardT consumes the
// tape entry its matching ForwardT pushed, returns ∂loss/∂input, and
// accumulates parameter gradients unless the tape is in FrozenParams mode.
type Layer interface {
	// Name identifies the layer within a model (e.g. "conv2"); cutting
	// points are addressed by layer name.
	Name() string
	// ForwardT computes the layer output for a batch, recording backward
	// state on tape. A nil tape discards the state (inference mode); any
	// number of goroutines may run nil-tape ForwardT on a shared layer.
	ForwardT(tape *Tape, x *tensor.Tensor, train bool) *tensor.Tensor
	// BackwardT consumes ∂loss/∂output of the matching ForwardT on tape
	// and returns ∂loss/∂input, accumulating parameter gradients unless
	// tape.FrozenParams is set.
	BackwardT(tape *Tape, grad *tensor.Tensor) *tensor.Tensor
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

// checkBatched panics unless x has at least rank 2 ([N, ...]).
func checkBatched(layer string, x *tensor.Tensor) {
	if x.Rank() < 2 {
		panic(fmt.Sprintf("nn: %s expects batched input [N,...], got shape %v", layer, x.Shape()))
	}
}
