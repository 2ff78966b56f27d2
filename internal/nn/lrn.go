package nn

// LocalResponseNorm implements AlexNet-style cross-channel local response
// normalization:
//
//	y_c = x_c / (k + (alpha/n)·Σ_{j∈window(c)} x_j²)^beta
//
// where the window spans n channels centred on c at the same spatial
// position. The backward pass is the exact analytic Jacobian product:
//
//	dx_j = g_j·s_j^{-β} − (2βα/n)·x_j·Σ_{c: j∈window(c)} g_c·x_c·s_c^{-β-1}
type LocalResponseNorm struct {
	name        string
	N           int // window size in channels
	K           float64
	Alpha, Beta float64
}

// NewLocalResponseNorm constructs an LRN layer with the given window size
// and the classic AlexNet constants when k, alpha, beta are zero.
func NewLocalResponseNorm(name string, n int, k, alpha, beta float64) *LocalResponseNorm {
	if n <= 0 {
		panic("nn: LRN window must be positive")
	}
	if k == 0 && alpha == 0 && beta == 0 {
		k, alpha, beta = 2, 1e-4, 0.75
	}
	return &LocalResponseNorm{name: name, N: n, K: k, Alpha: alpha, Beta: beta}
}

// Name implements Layer.
func (l *LocalResponseNorm) Name() string { return l.name }

// Params implements Layer.
func (l *LocalResponseNorm) Params() []*Param { return nil }

// OutShape implements Layer.
func (l *LocalResponseNorm) OutShape(in []int) []int { return in }

// window returns the [lo,hi) channel range for output channel c.
func (l *LocalResponseNorm) window(c, channels int) (int, int) {
	lo := c - l.N/2
	hi := c + (l.N-1)/2 + 1
	if lo < 0 {
		lo = 0
	}
	if hi > channels {
		hi = channels
	}
	return lo, hi
}
