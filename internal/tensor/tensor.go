// Package tensor implements the dense numeric arrays that every other part
// of the Shredder reproduction is built on: contiguous row-major tensors of
// float64 or float32 with elementwise arithmetic, parallel matrix
// multiplication, im2col lowering and the direct convolution kernel of
// compiled plans, reductions, and random initialization (including the
// Laplace distribution Shredder uses for noise tensors). It is arithmetic
// only: the byte forms these arrays are written in, on the wire and in
// files, are package wire's.
//
// The package is deliberately minimal: one array type, Dense, whose element
// type is a parameter; shapes are explicit []int, data is a flat []F in
// row-major order, and there are no lazy views or broadcasting rules beyond
// what the nn package needs. Operations that can fail on shape mismatch
// panic, because a shape mismatch inside a training loop is always a
// programming error, never a runtime condition to recover from.
package tensor

import (
	"fmt"
	"strings"
)

// Dense is a dense, contiguous, row-major n-dimensional array of F. The zero
// value is an empty array; use New, From or NewDense to construct one.
//
// The header carries its shape inline: shape is dims[:rank] for every rank
// the networks use, so an array is two objects — header and data — not
// three. A Dense is therefore handled by pointer only; a copied header's
// shape would still point into the original.
type Dense[F Float] struct {
	shape []int
	data  []F
	dims  [4]int
}

// Tensor is the float64 array: training, noise, and the float64 plans.
type Tensor = Dense[float64]

// Tensor32 is the float32 array: the element type of the compiled float32
// inference path and of quantize.DequantizePacked32, where Shredder's
// learned noise already dwarfs a float32 rounding error.
type Tensor32 = Dense[float32]

// wrap returns an array over data with a copy of shape, which is neither
// retained nor formatted: a caller may assemble it in a stack buffer.
func wrap[F Float](data []F, shape []int) *Dense[F] {
	t := &Dense[F]{data: data}
	t.setShape(shape)
	return t
}

// setShape makes t's shape a copy of shape, inline up to rank len(dims).
func (t *Dense[F]) setShape(shape []int) {
	if len(shape) <= len(t.dims) {
		t.shape = t.dims[:len(shape)]
	} else {
		t.shape = make([]int, len(shape))
	}
	copy(t.shape, shape)
}

// NewDense returns a zero-filled array with the given shape. NewDense() with
// no arguments returns a scalar-shaped array of one element.
func NewDense[F Float](shape ...int) *Dense[F] {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// Only a copy is formatted, so the argument does not escape.
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, append([]int(nil), shape...)))
		}
		n *= d
	}
	return wrap(make([]F, n), shape)
}

// New returns a zero-filled float64 tensor with the given shape.
func New(shape ...int) *Tensor { return NewDense[float64](shape...) }

// From wraps an existing slice as a tensor with the given shape. The slice
// is used directly (not copied); its length must equal the shape's volume.
func From(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (volume %d)", len(data), append([]int(nil), shape...), n))
	}
	return wrap(data, shape)
}

// ToDense converts a float64 tensor to an array of the target element type.
// For F = float64 the storage is still copied, so mutating the result never
// aliases the source.
func ToDense[F Float](t *Tensor) *Dense[F] {
	out := NewDense[F](t.shape...)
	for i, v := range t.data {
		out.data[i] = F(v)
	}
	return out
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Dense[F]) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Dense[F]) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Dense[F]) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Dense[F]) Len() int { return len(t.data) }

// Data returns the underlying flat storage. Mutating it mutates the tensor.
func (t *Dense[F]) Data() []F { return t.data }

// Clone returns a deep copy of t.
func (t *Dense[F]) Clone() *Dense[F] {
	c := NewDense[F](t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a tensor sharing t's storage with a new shape of equal
// volume. A single -1 dimension is inferred from the rest.
func (t *Dense[F]) Reshape(shape ...int) *Dense[F] {
	out := wrap(t.data, shape)
	s := out.shape
	infer := -1
	n := 1
	for i, d := range s {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: multiple -1 dimensions in Reshape")
			}
			infer = i
			continue
		}
		n *= d
	}
	if infer >= 0 {
		if n == 0 || len(t.data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, s))
		}
		s[infer] = len(t.data) / n
		n *= s[infer]
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), s, n))
	}
	return out
}

// Flatten returns a rank-1 view of t sharing its storage.
func (t *Dense[F]) Flatten() *Dense[F] {
	return wrap(t.data, []int{len(t.data)})
}

// index converts multi-indices to a flat offset.
func (t *Dense[F]) index(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for dim %d (size %d)", ix, i, t.shape[i]))
		}
		off = off*t.shape[i] + ix
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Dense[F]) At(idx ...int) F { return t.data[t.index(idx...)] }

// Set assigns the element at the given multi-index.
func (t *Dense[F]) Set(v F, idx ...int) { t.data[t.index(idx...)] = v }

// SameShape reports whether t and o have identical shapes.
func (t *Dense[F]) SameShape(o *Dense[F]) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// Fill sets every element to v.
func (t *Dense[F]) Fill(v F) *Dense[F] {
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Zero sets every element to 0.
func (t *Dense[F]) Zero() *Dense[F] { return t.Fill(0) }

// CopyFrom copies o's data into t. Shapes must match in volume.
func (t *Dense[F]) CopyFrom(o *Dense[F]) *Dense[F] {
	if len(t.data) != len(o.data) {
		panic(fmt.Sprintf("tensor: CopyFrom volume mismatch %v vs %v", t.shape, o.shape))
	}
	copy(t.data, o.data)
	return t
}

// Slice returns the i-th sub-tensor along the first axis, sharing storage.
// For a tensor of shape [N, ...rest] it returns shape [...rest].
func (t *Dense[F]) Slice(i int) *Dense[F] {
	if len(t.shape) == 0 {
		panic("tensor: Slice on rank-0 tensor")
	}
	if i < 0 || i >= t.shape[0] {
		panic(fmt.Sprintf("tensor: Slice index %d out of range (size %d)", i, t.shape[0]))
	}
	sub := 1
	for _, d := range t.shape[1:] {
		sub *= d
	}
	if len(t.shape) == 1 {
		return wrap(t.data[i:i+1], []int{1})
	}
	return wrap(t.data[i*sub:(i+1)*sub], t.shape[1:])
}

// String renders a short human-readable description (shape plus the first
// few elements), suitable for debugging.
func (t *Dense[F]) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.shape)
	n := len(t.data)
	show := n
	if show > 8 {
		show = 8
	}
	for i := 0; i < show; i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4g", float64(t.data[i]))
	}
	if show < n {
		fmt.Fprintf(&b, " ... (%d elems)", n)
	}
	b.WriteString("]")
	return b.String()
}

// Volume returns the number of elements implied by a shape.
func Volume(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// ShapeEq reports whether two shapes are identical.
func ShapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
