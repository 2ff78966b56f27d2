package core

import (
	"shredder/internal/nn"
	"shredder/internal/tensor"
)

// RemoteT computes y = R(a') recording backward state on tape: with
// RemoteBackwardT, the explicit-tape form of what RemoteTrainPlan computes,
// kept as its oracle.
func (s *Split) RemoteT(tape *nn.Tape, a *tensor.Tensor, train bool) *tensor.Tensor {
	return s.Net.ForwardRangeT(tape, a, s.CutIndex+1, s.Net.Len(), train)
}

// RemoteBackwardT backpropagates an output gradient through R, consuming
// the matching RemoteT's tape, and returns ∂loss/∂a′ — which is exactly
// ∂loss/∂n, the quantity the paper derives in §2.1. On a frozen tape no
// parameter gradients are written, so concurrent backward passes over one
// shared Split are race-free.
func (s *Split) RemoteBackwardT(tape *nn.Tape, grad *tensor.Tensor) *tensor.Tensor {
	return s.Net.BackwardRangeT(tape, grad, s.CutIndex+1, s.Net.Len())
}
