// Package tensor implements the dense numeric arrays that every other part
// of the Shredder reproduction is built on: contiguous row-major float64
// tensors with elementwise arithmetic, parallel matrix multiplication,
// im2col lowering and the direct convolution kernel of compiled plans,
// reductions, random initialization
// (including the Laplace distribution Shredder uses for noise tensors), and
// the little-endian artifact container checkpoints and noise files are
// written in (serialize.go).
//
// The package is deliberately minimal: shapes are explicit []int, data is a
// flat []float64 in row-major order, and there are no lazy views or
// broadcasting rules beyond what the nn package needs. Operations that can
// fail on shape mismatch panic, because a shape mismatch inside a training
// loop is always a programming error, never a runtime condition to recover
// from.
package tensor

import (
	"fmt"
	"strings"
)

// Tensor is a dense, contiguous, row-major n-dimensional array of float64.
// The zero value is an empty tensor; use New or From to construct one.
//
// The header carries its shape inline: shape is dims[:rank] for every rank
// the networks use, so a tensor is two objects — header and data — not three.
// A Tensor is therefore handled by pointer only; a copied header's shape
// would still point into the original.
type Tensor struct {
	shape []int
	data  []float64
	dims  [4]int
}

// wrap returns a tensor over data with a copy of shape, which is neither
// retained nor formatted: a caller may assemble it in a stack buffer.
func wrap(data []float64, shape []int) *Tensor {
	t := &Tensor{data: data}
	t.setShape(shape)
	return t
}

// setShape makes t's shape a copy of shape, inline up to rank len(dims).
func (t *Tensor) setShape(shape []int) {
	if len(shape) <= len(t.dims) {
		t.shape = t.dims[:len(shape)]
	} else {
		t.shape = make([]int, len(shape))
	}
	copy(t.shape, shape)
}

// New returns a zero-filled tensor with the given shape. New() with no
// arguments returns a scalar-shaped tensor of one element.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// Only a copy is formatted, so the argument does not escape.
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, append([]int(nil), shape...)))
		}
		n *= d
	}
	return wrap(make([]float64, n), shape)
}

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

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying flat storage. Mutating it mutates the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a tensor sharing t's storage with a new shape of equal
// volume. A single -1 dimension is inferred from the rest.
func (t *Tensor) Reshape(shape ...int) *Tensor {
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
func (t *Tensor) Flatten() *Tensor {
	return wrap(t.data, []int{len(t.data)})
}

// index converts multi-indices to a flat offset.
func (t *Tensor) index(idx ...int) int {
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
func (t *Tensor) At(idx ...int) float64 { return t.data[t.index(idx...)] }

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.index(idx...)] = v }

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
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
func (t *Tensor) Fill(v float64) *Tensor {
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Zero sets every element to 0.
func (t *Tensor) Zero() *Tensor { return t.Fill(0) }

// CopyFrom copies o's data into t. Shapes must match in volume.
func (t *Tensor) CopyFrom(o *Tensor) *Tensor {
	if len(t.data) != len(o.data) {
		panic(fmt.Sprintf("tensor: CopyFrom volume mismatch %v vs %v", t.shape, o.shape))
	}
	copy(t.data, o.data)
	return t
}

// Slice returns the i-th sub-tensor along the first axis, sharing storage.
// For a tensor of shape [N, ...rest] it returns shape [...rest].
func (t *Tensor) Slice(i int) *Tensor {
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
func (t *Tensor) String() string {
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
		fmt.Fprintf(&b, "%.4g", t.data[i])
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
