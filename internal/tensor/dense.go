package tensor

import (
	"fmt"
	"strings"
)

// Dense is a dense, contiguous, row-major n-dimensional array whose element
// type is a parameter: the dtype-tagged buffer the compiled inference path
// runs on. Dense[float64] is layout-compatible with Tensor; Dense[float32]
// (aliased Tensor32) halves the bytes per element for inference, where
// Shredder's learned noise already dwarfs a float32 rounding error.
//
// Dense deliberately carries only what the inference hot path needs —
// shape bookkeeping and conversions. Training, autograd, and the
// full reduction/statistics surface stay on the float64 Tensor.
type Dense[F Float] struct {
	shape []int
	data  []F
}

// Tensor32 is the float32 dtype-tagged buffer — the element type of the
// compiled float32 inference path and of quantize.DequantizePacked32.
type Tensor32 = Dense[float32]

// NewDense returns a zero-filled dtype-tagged buffer with the given shape.
func NewDense[F Float](shape ...int) *Dense[F] {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Dense[F]{shape: s, data: make([]F, n)}
}

// Shape returns the buffer's dimensions. The returned slice must not be
// modified.
func (d *Dense[F]) Shape() []int { return d.shape }

// Len returns the total number of elements.
func (d *Dense[F]) Len() int { return len(d.data) }

// Data returns the underlying flat storage. Mutating it mutates the buffer.
func (d *Dense[F]) Data() []F { return d.data }

// String renders a short human-readable description for debugging.
func (d *Dense[F]) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dense%v[", d.shape)
	show := len(d.data)
	if show > 8 {
		show = 8
	}
	for i := 0; i < show; i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4g", float64(d.data[i]))
	}
	if show < len(d.data) {
		fmt.Fprintf(&b, " ... (%d elems)", len(d.data))
	}
	b.WriteString("]")
	return b.String()
}

// ToDense converts a float64 tensor to a dtype-tagged buffer of the target
// element type. For F = float64 the storage is still copied, so mutating
// the result never aliases the source.
func ToDense[F Float](t *Tensor) *Dense[F] {
	out := NewDense[F](t.shape...)
	for i, v := range t.data {
		out.data[i] = F(v)
	}
	return out
}

// panicShape raises a uniform shape-mismatch panic for the Dense kernels.
func panicShape(op string, shapes ...[]int) {
	parts := make([]string, len(shapes))
	for i, s := range shapes {
		parts[i] = fmt.Sprint(s)
	}
	panic(fmt.Sprintf("tensor: %s shape mismatch %s", op, strings.Join(parts, " vs ")))
}
