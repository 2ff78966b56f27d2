package nn

import (
	"math"

	"shredder/internal/tensor"
)

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

// lrnState is the tape record of one forward pass: the input and the
// per-element denominator s_c = k + (alpha/n)·Σ x_j².
type lrnState struct {
	in *tensor.Tensor
	s  *tensor.Tensor
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

// ForwardT implements Layer. With a nil tape the denominator tensor is
// never materialized — the discarded-tape path allocates strictly less.
func (l *LocalResponseNorm) ForwardT(tape *Tape, x *tensor.Tensor, train bool) *tensor.Tensor {
	checkBatched(l.name, x)
	if x.Rank() != 4 {
		panic("nn: LRN expects [N,C,H,W] input")
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	hw := h * w
	out := tensor.New(x.Shape()...)
	var sd []float64
	var sT *tensor.Tensor
	if tape != nil {
		sT = tensor.New(x.Shape()...)
		sd = sT.Data()
	}
	xd, od := x.Data(), out.Data()
	coef := l.Alpha / float64(l.N)
	tensor.ParallelFor(n, func(i int) {
		base := i * c * hw
		for ch := 0; ch < c; ch++ {
			lo, hi := l.window(ch, c)
			for p := 0; p < hw; p++ {
				sum := 0.0
				for j := lo; j < hi; j++ {
					v := xd[base+j*hw+p]
					sum += v * v
				}
				s := l.K + coef*sum
				idx := base + ch*hw + p
				if sd != nil {
					sd[idx] = s
				}
				od[idx] = xd[idx] * math.Pow(s, -l.Beta)
			}
		}
	})
	tape.push(l, lrnState{in: x, s: sT})
	return out
}

// BackwardT implements Layer.
func (l *LocalResponseNorm) BackwardT(tape *Tape, grad *tensor.Tensor) *tensor.Tensor {
	st := tape.pop(l).(lrnState)
	x := st.in
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	hw := h * w
	dx := tensor.New(x.Shape()...)
	xd, sd, gd, dd := x.Data(), st.s.Data(), grad.Data(), dx.Data()
	coef := 2 * l.Beta * l.Alpha / float64(l.N)
	tensor.ParallelFor(n, func(i int) {
		base := i * c * hw
		for p := 0; p < hw; p++ {
			// t_c = g_c · x_c · s_c^{-β-1}, precomputed per channel column.
			for j := 0; j < c; j++ {
				idx := base + j*hw + p
				// direct term
				dd[idx] += gd[idx] * math.Pow(sd[idx], -l.Beta)
			}
			for j := 0; j < c; j++ {
				jdx := base + j*hw + p
				xj := xd[jdx]
				if xj == 0 {
					continue
				}
				// channels c whose window contains j: window is symmetric
				// around c, so iterate candidates and test membership.
				lo := j - (l.N-1)/2
				hi := j + l.N/2 + 1
				if lo < 0 {
					lo = 0
				}
				if hi > c {
					hi = c
				}
				acc := 0.0
				for ch := lo; ch < hi; ch++ {
					wlo, whi := l.window(ch, c)
					if j < wlo || j >= whi {
						continue
					}
					cdx := base + ch*hw + p
					acc += gd[cdx] * xd[cdx] * math.Pow(sd[cdx], -l.Beta-1)
				}
				dd[jdx] -= coef * xj * acc
			}
		}
	})
	return dx
}
