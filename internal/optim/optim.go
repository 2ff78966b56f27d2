// Package optim implements Adam (the optimizer the paper uses for noise
// learning, §3.2), which both pre-trains the benchmark networks and trains
// Shredder's noise tensors.
package optim

import (
	"math"

	"shredder/internal/nn"
	"shredder/internal/tensor"
)

// Adam is the Adam optimizer (Kingma & Ba 2015) with bias correction.
type Adam struct {
	params       []*nn.Param
	lr           float64
	Beta1, Beta2 float64
	Eps          float64
	t            int
	m, v         []*tensor.Tensor
}

// NewAdam constructs an Adam optimizer with the canonical β₁=0.9, β₂=0.999,
// ε=1e-8 defaults.
func NewAdam(params []*nn.Param, lr float64) *Adam {
	a := &Adam{params: params, lr: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	a.m = make([]*tensor.Tensor, len(params))
	a.v = make([]*tensor.Tensor, len(params))
	for i, p := range params {
		a.m[i] = tensor.New(p.Value.Shape()...)
		a.v[i] = tensor.New(p.Value.Shape()...)
	}
	return a
}

// Step applies one update to every parameter and zeroes the gradients.
func (a *Adam) Step() {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range a.params {
		md, vd := a.m[i].Data(), a.v[i].Data()
		gd, pd := p.Grad.Data(), p.Value.Data()
		for j := range gd {
			g := gd[j]
			md[j] = a.Beta1*md[j] + (1-a.Beta1)*g
			vd[j] = a.Beta2*vd[j] + (1-a.Beta2)*g*g
			mhat := md[j] / c1
			vhat := vd[j] / c2
			pd[j] -= a.lr * mhat / (math.Sqrt(vhat) + a.Eps)
		}
		p.ZeroGrad()
	}
}
