package core

import (
	"shredder/internal/nn"
	"shredder/internal/tensor"
)

// ShredderLoss evaluates the paper's Eq. 3 loss
//
//	loss = CE(R(a+n), y) − λ·Σᵢ|nᵢ|
//
// for a batch, returning the total loss, the cross-entropy component, and
// the gradient with respect to the logits. The gradient of the privacy
// term with respect to the noise, −λ·sign(n), is applied separately by
// AddPrivacyGrad because it does not flow through the network.
func ShredderLoss(logits *tensor.Tensor, labels []int, noise *NoiseTensor, lambda float64) (total, ce float64, grad *tensor.Tensor) {
	ce, grad = nn.CrossEntropy(logits, labels)
	total = ce - lambda*noise.Values().AbsSum()
	return total, ce, grad
}

// AddPrivacyGrad accumulates the gradient of the −λ·Σ|nᵢ| term into the
// noise gradient: ∂(−λΣ|nᵢ|)/∂nᵢ = −λ·sign(nᵢ). This is the
// anti-regularization update of the paper — the exact opposite of weight
// decay, growing the noise magnitude and with it the in vivo privacy.
func AddPrivacyGrad(noise *NoiseTensor, lambda float64) {
	gd, vd := noise.Param.Grad.Data(), noise.Param.Value.Data()
	for i, v := range vd {
		switch {
		case v > 0:
			gd[i] -= lambda
		case v < 0:
			gd[i] += lambda
		}
	}
}
