package tensor

import "sync"

// scratchPool recycles whole scratch tensors — header, shape slice and
// flat storage — for the short-lived buffers of the tape path's hot loops
// (im2col column matrices, matmul products, gradient reassembly). Pooling
// the *Tensor rather than its []float64 means neither Get nor Put boxes a
// slice header: a warm GetScratch/PutScratch pair allocates nothing.
// (Compiled inference plans do not come here: each owns a workspace, see
// nn.CompiledNet.)
var scratchPool = sync.Pool{New: func() any { return new(Tensor) }}

// GetScratch returns a float64 tensor of the given shape backed by pooled
// storage. The contents are NOT zeroed: callers must fully overwrite every
// element (Im2ColInto and the MatMul*Into family do). Return the tensor
// with PutScratch when done; do not retain references to it afterwards.
func GetScratch(shape ...int) *Tensor {
	n := Volume(shape)
	t := scratchPool.Get().(*Tensor)
	if cap(t.data) < n {
		t.data = make([]float64, n)
	}
	t.data = t.data[:n]
	t.shape = append(t.shape[:0], shape...)
	return t
}

// PutScratch returns a tensor obtained from GetScratch to the pool. The
// tensor — and every view of it — must not be used after this call: the
// next GetScratch re-shapes it in place.
func PutScratch(t *Tensor) {
	if t != nil {
		scratchPool.Put(t)
	}
}
