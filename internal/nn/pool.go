package nn

import (
	"fmt"

	"shredder/internal/tensor"
)

// MaxPool2D applies max pooling over [N, C, H, W] inputs. The backward pass
// routes each output gradient to the argmax input position.
type MaxPool2D struct {
	name      string
	K, Stride int
}

// maxPoolState is the tape record of one MaxPool2D forward pass.
type maxPoolState struct {
	shape  []int
	argmax []int // flat input index per output element
}

// NewMaxPool2D constructs a max-pooling layer with a square window.
func NewMaxPool2D(name string, k, stride int) *MaxPool2D {
	if k <= 0 || stride <= 0 {
		panic("nn: pooling kernel and stride must be positive")
	}
	return &MaxPool2D{name: name, K: k, Stride: stride}
}

// Name implements Layer.
func (m *MaxPool2D) Name() string { return m.name }

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// OutShape implements Layer.
func (m *MaxPool2D) OutShape(in []int) []int {
	if len(in) != 3 {
		panic(fmt.Sprintf("nn: %s expects [C,H,W] per-sample shape, got %v", m.name, in))
	}
	oh := (in[1]-m.K)/m.Stride + 1
	ow := (in[2]-m.K)/m.Stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: %s window %d/stride %d larger than input %v", m.name, m.K, m.Stride, in))
	}
	return []int{in[0], oh, ow}
}

// ForwardT implements Layer. With a nil tape the argmax routing table is
// never built — the discarded-tape path does strictly less work.
func (m *MaxPool2D) ForwardT(tape *Tape, x *tensor.Tensor, train bool) *tensor.Tensor {
	checkBatched(m.name, x)
	os := m.OutShape(x.Shape()[1:])
	oh, ow := os[1], os[2]
	var argmax []int
	if tape != nil {
		argmax = make([]int, x.Dim(0)*x.Dim(1)*oh*ow)
	}
	out := m.compute(x, oh, ow, argmax)
	tape.push(m, maxPoolState{shape: append([]int(nil), x.Shape()...), argmax: argmax})
	return out
}

// compute runs the window sweep; when argmax is non-nil it records the flat
// input index of each output's maximum for BackwardT.
func (m *MaxPool2D) compute(x *tensor.Tensor, oh, ow int, argmax []int) *tensor.Tensor {
	n, c := x.Dim(0), x.Dim(1)
	h, w := x.Dim(2), x.Dim(3)
	out := tensor.New(n, c, oh, ow)
	xd, od := x.Data(), out.Data()
	tensor.ParallelFor(n, func(i int) {
		for ch := 0; ch < c; ch++ {
			in := xd[(i*c+ch)*h*w:]
			outPlane := od[(i*c+ch)*oh*ow:]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					y0, x0 := oy*m.Stride, ox*m.Stride
					best := in[y0*w+x0]
					bi := y0*w + x0
					for ky := 0; ky < m.K; ky++ {
						for kx := 0; kx < m.K; kx++ {
							idx := (y0+ky)*w + (x0 + kx)
							if in[idx] > best {
								best, bi = in[idx], idx
							}
						}
					}
					outPlane[oy*ow+ox] = best
					if argmax != nil {
						argmax[(i*c+ch)*oh*ow+oy*ow+ox] = (i*c+ch)*h*w + bi
					}
				}
			}
		}
	})
	return out
}

// BackwardT implements Layer.
func (m *MaxPool2D) BackwardT(tape *Tape, grad *tensor.Tensor) *tensor.Tensor {
	st := tape.pop(m).(maxPoolState)
	if grad.Len() != len(st.argmax) {
		panic("nn: MaxPool2D backward grad size mismatch")
	}
	dx := tensor.New(st.shape...)
	dd, gd := dx.Data(), grad.Data()
	for i, src := range st.argmax {
		dd[src] += gd[i]
	}
	return dx
}
