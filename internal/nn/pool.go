package nn

import "fmt"

// MaxPool2D applies max pooling over [N, C, H, W] inputs. The backward pass
// routes each output gradient to the argmax input position.
type MaxPool2D struct {
	name      string
	K, Stride int
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
