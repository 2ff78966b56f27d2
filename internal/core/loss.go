package core

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
