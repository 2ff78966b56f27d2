package nn

import (
	"fmt"
	"math"

	"shredder/internal/tensor"
)

// BatchNorm2D normalizes each channel of [N, C, H, W] activations to zero
// mean and unit variance over the batch and spatial dimensions, then
// applies a learned affine transform (γ, β). At inference it uses running
// statistics accumulated during training.
//
// Training-mode forward passes on a FrozenParams tape still normalize by
// batch statistics but skip the running-statistics update — the one write
// to shared layer state — so frozen training passes are reentrant.
//
// The backward pass is the exact batch-norm Jacobian product:
//
//	dx = (γ/σ)·(dy − mean(dy) − x̂·mean(dy·x̂))
type BatchNorm2D struct {
	name     string
	C        int
	Eps      float64
	Momentum float64 // running-stat update rate (default 0.1)

	Gamma, Beta *Param

	runningMean []float64
	runningVar  []float64
}

// batchNormState is the tape record of one training-mode forward pass. A
// nil xhat marks an inference-mode pass, which has no backward.
type batchNormState struct {
	xhat *tensor.Tensor
	std  []float64
	n    int // elements per channel in the batch
}

// NewBatchNorm2D constructs a batch-norm layer over c channels.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	gamma := tensor.New(c).Fill(1)
	beta := tensor.New(c)
	bn := &BatchNorm2D{
		name: name, C: c, Eps: 1e-5, Momentum: 0.1,
		Gamma:       NewParam(name+".gamma", gamma),
		Beta:        NewParam(name+".beta", beta),
		runningMean: make([]float64, c),
		runningVar:  make([]float64, c),
	}
	for i := range bn.runningVar {
		bn.runningVar[i] = 1
	}
	return bn
}

// Name implements Layer.
func (bn *BatchNorm2D) Name() string { return bn.name }

// Params implements Layer.
func (bn *BatchNorm2D) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// OutShape implements Layer.
func (bn *BatchNorm2D) OutShape(in []int) []int {
	if len(in) != 3 || in[0] != bn.C {
		panic(fmt.Sprintf("nn: %s expects per-sample shape [%d,H,W], got %v", bn.name, bn.C, in))
	}
	return in
}

// ForwardT implements Layer.
func (bn *BatchNorm2D) ForwardT(tape *Tape, x *tensor.Tensor, train bool) *tensor.Tensor {
	checkBatched(bn.name, x)
	if x.Rank() != 4 || x.Dim(1) != bn.C {
		panic(fmt.Sprintf("nn: %s expects [N,%d,H,W], got %v", bn.name, bn.C, x.Shape()))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	hw := h * w
	perC := n * hw
	out := tensor.New(x.Shape()...)
	xd, od := x.Data(), out.Data()
	gd, bd := bn.Gamma.Value.Data(), bn.Beta.Value.Data()

	if !train {
		tape.push(bn, batchNormState{})
		bn.normalizeRunning(xd, od, n, hw)
		return out
	}

	st := batchNormState{
		xhat: tensor.New(x.Shape()...),
		std:  make([]float64, bn.C),
		n:    perC,
	}
	xh := st.xhat.Data()
	updateRunning := !tape.frozen()
	for c := 0; c < bn.C; c++ {
		sum := 0.0
		for i := 0; i < n; i++ {
			base := (i*bn.C + c) * hw
			for p := 0; p < hw; p++ {
				sum += xd[base+p]
			}
		}
		mean := sum / float64(perC)
		vsum := 0.0
		for i := 0; i < n; i++ {
			base := (i*bn.C + c) * hw
			for p := 0; p < hw; p++ {
				d := xd[base+p] - mean
				vsum += d * d
			}
		}
		variance := vsum / float64(perC)
		std := math.Sqrt(variance + bn.Eps)
		st.std[c] = std
		inv := 1 / std
		g, b := gd[c], bd[c]
		for i := 0; i < n; i++ {
			base := (i*bn.C + c) * hw
			for p := 0; p < hw; p++ {
				v := (xd[base+p] - mean) * inv
				xh[base+p] = v
				od[base+p] = g*v + b
			}
		}
		if updateRunning {
			bn.runningMean[c] = (1-bn.Momentum)*bn.runningMean[c] + bn.Momentum*mean
			bn.runningVar[c] = (1-bn.Momentum)*bn.runningVar[c] + bn.Momentum*variance
		}
	}
	tape.push(bn, st)
	return out
}

// normalizeRunning applies the running-statistics affine normalization,
// reading only immutable-at-inference layer state.
func (bn *BatchNorm2D) normalizeRunning(xd, od []float64, n, hw int) {
	gd, bd := bn.Gamma.Value.Data(), bn.Beta.Value.Data()
	for c := 0; c < bn.C; c++ {
		inv := 1 / math.Sqrt(bn.runningVar[c]+bn.Eps)
		mean := bn.runningMean[c]
		g, b := gd[c], bd[c]
		for i := 0; i < n; i++ {
			base := (i*bn.C + c) * hw
			for p := 0; p < hw; p++ {
				od[base+p] = g*(xd[base+p]-mean)*inv + b
			}
		}
	}
}

// BackwardT implements Layer. Under FrozenParams the γ/β gradient
// accumulation is skipped.
func (bn *BatchNorm2D) BackwardT(tape *Tape, grad *tensor.Tensor) *tensor.Tensor {
	st := tape.pop(bn).(batchNormState)
	if st.xhat == nil {
		panic("nn: BatchNorm2D.Backward before training-mode Forward")
	}
	if !grad.SameShape(st.xhat) {
		panic("nn: BatchNorm2D backward grad shape mismatch")
	}
	nT := grad.Dim(0)
	h, w := grad.Dim(2), grad.Dim(3)
	hw := h * w
	perC := float64(st.n)
	frozen := tape.frozen()
	dx := tensor.New(grad.Shape()...)
	gd := grad.Data()
	xh := st.xhat.Data()
	dd := dx.Data()
	gv := bn.Gamma.Value.Data()
	for c := 0; c < bn.C; c++ {
		var sumDy, sumDyXh float64
		for i := 0; i < nT; i++ {
			base := (i*bn.C + c) * hw
			for p := 0; p < hw; p++ {
				dy := gd[base+p]
				sumDy += dy
				sumDyXh += dy * xh[base+p]
			}
		}
		if !frozen {
			bn.Gamma.Grad.Data()[c] += sumDyXh
			bn.Beta.Grad.Data()[c] += sumDy
		}
		coef := gv[c] / st.std[c]
		meanDy := sumDy / perC
		meanDyXh := sumDyXh / perC
		for i := 0; i < nT; i++ {
			base := (i*bn.C + c) * hw
			for p := 0; p < hw; p++ {
				dd[base+p] = coef * (gd[base+p] - meanDy - xh[base+p]*meanDyXh)
			}
		}
	}
	return dx
}
