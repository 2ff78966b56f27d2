package core

import (
	"fmt"

	"shredder/internal/nn"
	"shredder/internal/tensor"
)

// NoiseTensor is Shredder's additive noise cast as trainable parameters:
// one value per element of the cutting-point activation (paper §2.1). It is
// initialized from a Laplace(µ, b) distribution whose parameters are
// hyperparameters of the method (paper §2.4).
type NoiseTensor struct {
	// Param holds the trainable values and their gradient.
	Param *nn.Param
	// Mu and Scale record the Laplace initialization hyperparameters.
	Mu, Scale float64
}

// NewNoiseTensor creates a Laplace(mu, scale)-initialized noise tensor for
// a per-sample activation shape.
func NewNoiseTensor(shape []int, mu, scale float64, rng *tensor.RNG) *NoiseTensor {
	v := tensor.New(shape...)
	rng.FillLaplace(v, mu, scale)
	return &NoiseTensor{Param: nn.NewParam("noise", v), Mu: mu, Scale: scale}
}

// Values returns the noise values (per-sample activation shape).
func (n *NoiseTensor) Values() *tensor.Tensor { return n.Param.Value }

// AddBroadcast returns a + noise for a batched activation a of shape
// [N, ...shape] and a per-sample noise tensor, broadcasting the noise over
// the batch. The input is not modified.
func AddBroadcast(a, noise *tensor.Tensor) *tensor.Tensor {
	return addBroadcastInto(tensor.New(a.Shape()...), a, noise)
}

// addBroadcastInto is AddBroadcast writing into dst, a tensor of a's size a
// training run keeps between steps; it returns dst.
func addBroadcastInto(dst, a, noise *tensor.Tensor) *tensor.Tensor {
	per := noise.Len()
	if a.Rank() < 2 || a.Len()%per != 0 || a.Len()/a.Dim(0) != per || dst.Len() != a.Len() {
		panic(fmt.Sprintf("core: noise of %d values cannot broadcast over activation shape %v", per, a.Shape()))
	}
	od, ad, nd := dst.Data(), a.Data(), noise.Data()
	for i, batch := 0, a.Dim(0); i < batch; i++ {
		row, arow := od[i*per:(i+1)*per], ad[i*per:(i+1)*per]
		for j := range row {
			row[j] = arow[j] + nd[j]
		}
	}
	return dst
}

// NewWeightTensor creates a Normal(mu, std)-initialized multiplicative
// weight tensor for a per-sample activation shape. Weights start near the
// identity (mu ≈ 1) so short training budgets begin from an unperturbed
// network; the snippet-faithful N(0, 1) start is WeightMu=0, WeightStd=1.
func NewWeightTensor(shape []int, mu, std float64, rng *tensor.RNG) *NoiseTensor {
	v := tensor.New(shape...)
	rng.FillNormal(v, mu, std)
	return &NoiseTensor{Param: nn.NewParam("weight", v), Mu: mu, Scale: std}
}

// mulAddBroadcastInto writes a⊙w + noise into dst, a tensor of a's size, for
// a batched activation a of shape [N, ...shape], broadcasting the per-sample
// weight and noise tensors over the batch — the multiplicative Shredder
// variant's forward transform. It returns dst; a is not modified.
func mulAddBroadcastInto(dst, a, w, noise *tensor.Tensor) *tensor.Tensor {
	per := noise.Len()
	if w.Len() != per {
		panic(fmt.Sprintf("core: weight of %d values paired with noise of %d", w.Len(), per))
	}
	if a.Rank() < 2 || a.Len()%per != 0 || a.Len()/a.Dim(0) != per || dst.Len() != a.Len() {
		panic(fmt.Sprintf("core: noise of %d values cannot broadcast over activation shape %v", per, a.Shape()))
	}
	od, ad, wd, nd := dst.Data(), a.Data(), w.Data(), noise.Data()
	batch := a.Dim(0)
	for i := 0; i < batch; i++ {
		row, arow := od[i*per:(i+1)*per], ad[i*per:(i+1)*per]
		for j := range row {
			row[j] = arow[j]*wd[j] + nd[j]
		}
	}
	return dst
}

// AccumulateWeightGrad folds a batched activation gradient ∂loss/∂a′ into
// the weight gradient: with a′ᵢ = aᵢ⊙w + n shared across the batch,
// ∂loss/∂w = Σᵢ ∂loss/∂a′ᵢ ⊙ aᵢ.
func (n *NoiseTensor) AccumulateWeightGrad(dAprime, a *tensor.Tensor) {
	per := n.Param.Value.Len()
	if dAprime.Len() != a.Len() || dAprime.Len()%per != 0 {
		panic(fmt.Sprintf("core: gradient shape %v incompatible with weight of %d values", dAprime.Shape(), per))
	}
	gd, dd, ad := n.Param.Grad.Data(), dAprime.Data(), a.Data()
	batch := dAprime.Len() / per
	for i := 0; i < batch; i++ {
		off := i * per
		for j := 0; j < per; j++ {
			gd[j] += dd[off+j] * ad[off+j]
		}
	}
}

// AccumulateGrad folds a batched activation gradient ∂loss/∂a′ of shape
// [N, ...shape] into the noise gradient: since the same noise is added to
// every sample, ∂loss/∂n = Σᵢ ∂loss/∂a′ᵢ.
func (n *NoiseTensor) AccumulateGrad(dAprime *tensor.Tensor) {
	per := n.Param.Value.Len()
	if dAprime.Len()%per != 0 {
		panic(fmt.Sprintf("core: gradient shape %v incompatible with noise of %d values", dAprime.Shape(), per))
	}
	gd, dd := n.Param.Grad.Data(), dAprime.Data()
	batch := dAprime.Len() / per
	for i := 0; i < batch; i++ {
		row := dd[i*per : (i+1)*per]
		for j := range row {
			gd[j] += row[j]
		}
	}
}
