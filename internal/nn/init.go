package nn

import (
	"math"

	"shredder/internal/tensor"
)

// HeInit fills w with He-normal initialization N(0, 2/fanIn), the standard
// choice for ReLU networks. A nil rng leaves w as it is: a layer built
// without one has its shapes only, for a checkpoint to fill.
func HeInit(w *tensor.Tensor, fanIn int, rng *tensor.RNG) {
	if rng == nil {
		return
	}
	sigma := math.Sqrt(2 / float64(fanIn))
	rng.FillNormal(w, 0, sigma)
}

// XavierInit fills w with Xavier/Glorot-uniform initialization
// U(−√(6/(fanIn+fanOut)), +√(6/(fanIn+fanOut))). A nil rng leaves w as it
// is, as HeInit does.
func XavierInit(w *tensor.Tensor, fanIn, fanOut int, rng *tensor.RNG) {
	if rng == nil {
		return
	}
	limit := math.Sqrt(6 / float64(fanIn+fanOut))
	rng.FillUniform(w, -limit, limit)
}
