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
// shape bookkeeping, views, and conversions. Training, autograd, and the
// full reduction/statistics surface stay on the float64 Tensor.
type Dense[F Float] struct {
	shape []int
	data  []F
}

// Tensor32 is the float32 dtype-tagged buffer — the element type of the
// compiled float32 inference path and of quantize.Dequantize32.
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

// Dim returns the size of dimension i.
func (d *Dense[F]) Dim(i int) int { return d.shape[i] }

// Rank returns the number of dimensions.
func (d *Dense[F]) Rank() int { return len(d.shape) }

// Len returns the total number of elements.
func (d *Dense[F]) Len() int { return len(d.data) }

// Data returns the underlying flat storage. Mutating it mutates the buffer.
func (d *Dense[F]) Data() []F { return d.data }

// Clone returns a deep copy.
func (d *Dense[F]) Clone() *Dense[F] {
	c := NewDense[F](d.shape...)
	copy(c.data, d.data)
	return c
}

// Reshape returns a view sharing the storage with a new shape of equal
// volume. A single -1 dimension is inferred from the rest.
func (d *Dense[F]) Reshape(shape ...int) *Dense[F] {
	s := make([]int, len(shape))
	copy(s, shape)
	infer := -1
	n := 1
	for i, dim := range s {
		if dim == -1 {
			if infer >= 0 {
				panic("tensor: multiple -1 dimensions in Reshape")
			}
			infer = i
			continue
		}
		n *= dim
	}
	if infer >= 0 {
		if n == 0 || len(d.data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", d.shape, shape))
		}
		s[infer] = len(d.data) / n
		n *= s[infer]
	}
	if n != len(d.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", d.shape, len(d.data), shape, n))
	}
	return &Dense[F]{shape: s, data: d.data}
}

// Slice returns the i-th sub-buffer along the first axis, sharing storage.
func (d *Dense[F]) Slice(i int) *Dense[F] {
	if len(d.shape) == 0 {
		panic("tensor: Slice on rank-0 buffer")
	}
	if i < 0 || i >= d.shape[0] {
		panic(fmt.Sprintf("tensor: Slice index %d out of range (size %d)", i, d.shape[0]))
	}
	sub := 1
	for _, dim := range d.shape[1:] {
		sub *= dim
	}
	s := make([]int, len(d.shape)-1)
	copy(s, d.shape[1:])
	if len(s) == 0 {
		s = []int{1}
	}
	return &Dense[F]{shape: s, data: d.data[i*sub : (i+1)*sub]}
}

// Argmax returns the flat index of the maximum element.
func (d *Dense[F]) Argmax() int {
	if len(d.data) == 0 {
		panic("tensor: Argmax of empty buffer")
	}
	best, bi := d.data[0], 0
	for i, v := range d.data[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

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
