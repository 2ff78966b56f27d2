package tensor

import (
	"fmt"
	"math"
)

// checkSame panics unless a and b share a shape.
func checkSame[F Float](op string, a, b *Dense[F]) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}

// Add returns a + b elementwise.
func Add(a, b *Tensor) *Tensor {
	checkSame("Add", a, b)
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] + b.data[i]
	}
	return out
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	checkSame("Sub", a, b)
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out
}

// AddInPlace accumulates b into t.
func (t *Dense[F]) AddInPlace(b *Dense[F]) *Dense[F] {
	checkSame("AddInPlace", t, b)
	for i := range t.data {
		t.data[i] += b.data[i]
	}
	return t
}

// Scale multiplies every element by s in place.
func (t *Dense[F]) Scale(s F) *Dense[F] {
	for i := range t.data {
		t.data[i] *= s
	}
	return t
}

// Shift adds s to every element in place.
func (t *Dense[F]) Shift(s F) *Dense[F] {
	for i := range t.data {
		t.data[i] += s
	}
	return t
}

// Apply replaces every element x with f(x) in place.
func (t *Dense[F]) Apply(f func(F) F) *Dense[F] {
	for i := range t.data {
		t.data[i] = f(t.data[i])
	}
	return t
}

// Sum returns the sum of all elements.
func (t *Dense[F]) Sum() F {
	var s F
	for _, v := range t.data {
		s += v
	}
	return s
}

// AbsSum returns the L1 norm Σ|xᵢ| — the quantity Shredder's loss term
// maximizes to grow the noise magnitude.
func (t *Dense[F]) AbsSum() F {
	var s F
	for _, v := range t.data {
		s += F(math.Abs(float64(v)))
	}
	return s
}

// SqSum returns the sum of squares Σxᵢ².
func (t *Dense[F]) SqSum() F {
	var s F
	for _, v := range t.data {
		s += v * v
	}
	return s
}

// Mean returns the arithmetic mean of the elements (0 for empty tensors).
func (t *Dense[F]) Mean() F {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / F(len(t.data))
}

// Variance returns the population variance of the elements.
func (t *Dense[F]) Variance() F {
	n := len(t.data)
	if n == 0 {
		return 0
	}
	m := t.Mean()
	var s F
	for _, v := range t.data {
		d := v - m
		s += d * d
	}
	return s / F(n)
}

// Std returns the population standard deviation.
func (t *Dense[F]) Std() F { return F(math.Sqrt(float64(t.Variance()))) }

// Max returns the maximum element. Panics on empty tensors.
func (t *Dense[F]) Max() F {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element. Panics on empty tensors.
func (t *Dense[F]) Min() F {
	if len(t.data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Argmax returns the flat index of the maximum element.
func (t *Dense[F]) Argmax() int {
	if len(t.data) == 0 {
		panic("tensor: Argmax of empty tensor")
	}
	best, bi := t.data[0], 0
	for i, v := range t.data[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// Dot returns the inner product of two same-shape tensors.
func Dot(a, b *Tensor) float64 {
	checkSame("Dot", a, b)
	s := 0.0
	for i := range a.data {
		s += a.data[i] * b.data[i]
	}
	return s
}

// AllFinite reports whether every element is finite (no NaN/Inf) — used by
// trainers as a divergence guard.
func (t *Dense[F]) AllFinite() bool {
	for _, v := range t.data {
		if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// MaxAbs returns max |xᵢ| (0 for empty tensors).
func (t *Dense[F]) MaxAbs() F {
	var m F
	for _, v := range t.data {
		if a := F(math.Abs(float64(v))); a > m {
			m = a
		}
	}
	return m
}

// Equal reports whether a and b have the same shape and identical elements.
func Equal(a, b *Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.data {
		if a.data[i] != b.data[i] {
			return false
		}
	}
	return true
}

// BitEqual reports whether a and b have the same shape and the same float64
// bit patterns — stricter than Equal: it tells -0 from +0 and equates equal
// NaNs. It is the comparison behind every "bit for bit" property the
// compiled inference plans are pinned to.
func BitEqual(a, b *Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.data {
		if math.Float64bits(a.data[i]) != math.Float64bits(b.data[i]) {
			return false
		}
	}
	return true
}

// AllClose reports whether a and b have the same shape and elements within
// absolute tolerance tol.
func AllClose(a, b *Tensor, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}
