package tensor

import (
	"fmt"
	"runtime"
)

// parallelThreshold is the number of output elements below which MatMul
// runs single-threaded; spawning goroutines for tiny products costs more
// than it saves.
const parallelThreshold = 16 * 1024

// MatMul returns the matrix product a·b for rank-2 tensors of shapes
// [m,k] and [k,n]. The inner loops are ordered i-k-j so the hot loop
// streams both b and the output row, and rows of the result are computed
// in parallel across GOMAXPROCS workers for large products.
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires rank-2 tensors, got %v x %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	out := New(m, n)
	matmulKernel(out.data, a.data, b.data, m, k, n)
	return out
}

// MatMulT1 returns aᵀ·b for a of shape [k,m] and b of shape [k,n]: the
// gradient-of-weights product in linear/conv backward passes.
func MatMulT1(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulT1 requires rank-2 tensors")
	}
	k, m := a.shape[0], a.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMulT1 dimension mismatch %v x %v", a.shape, b.shape))
	}
	n := b.shape[1]
	out := New(m, n)
	matmulT1Kernel(out.data, a.data, b.data, k, m, n)
	return out
}

// MatMulT2 returns a·bᵀ for a of shape [m,k] and b of shape [n,k]: the
// gradient-of-input product in linear/conv backward passes.
func MatMulT2(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulT2 requires rank-2 tensors")
	}
	m, k := a.shape[0], a.shape[1]
	n := b.shape[0]
	if b.shape[1] != k {
		panic(fmt.Sprintf("tensor: MatMulT2 dimension mismatch %v x %v", a.shape, b.shape))
	}
	out := New(m, n)
	matmulT2Kernel(out.data, a.data, b.data, m, k, n)
	return out
}

// MatMulT2Into computes a·bᵀ into dst (shape [m,n] for a [m,k], b [n,k]).
// Every element of dst is overwritten, so a non-zeroed scratch buffer is a
// valid destination. It is the allocation-free variant the reentrant
// inference path uses.
func MatMulT2Into(dst, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[0]
	if b.shape[1] != k || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulT2Into shape mismatch dst %v = %v x %vᵀ", dst.shape, a.shape, b.shape))
	}
	matmulT2Kernel(dst.data, a.data, b.data, m, k, n)
}

// ParallelChunks splits [0,n) into at most GOMAXPROCS contiguous chunks and
// runs fn(lo, hi) once per chunk, returning when all are done. It is the
// package's one fan-out: the matmul kernels chunk their rows with it,
// ParallelFor its index range, and the compiled inference plan its batch —
// per-worker state (a workspace) is taken once per chunk, not once per index.
//
// The chunks run on helper goroutines, as many as the package's team has
// seats free (team.go), and on the calling goroutine when there were fewer
// seats than chunks; a call allocates nothing beyond the closure its caller
// built. Which goroutine runs a chunk is not specified; the chunk boundaries
// depend only on n and GOMAXPROCS. A panic in any chunk is re-raised on the
// calling goroutine once every chunk has stopped. fn must not call
// runtime.Goexit.
func ParallelChunks(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	chunks := (n + chunk - 1) / chunk
	if chunks == 1 {
		fn(0, n)
		return
	}
	j := jobs.Get().(*job)
	j.fn, j.n, j.chunk, j.chunks = fn, n, chunk, int64(chunks)
	j.next.Store(0)
	seated := 0
	for ; seated < chunks; seated++ {
		if seatsOut.Add(1) > seats {
			seatsOut.Add(-1)
			break
		}
		j.helpers.Add(1)
		go j.help()
	}
	if seated < chunks {
		j.run()
	}
	j.helpers.Wait()
	failure := j.failure.Swap(nil)
	j.fn = nil
	jobs.Put(j)
	if failure != nil {
		panic(*failure)
	}
}

// ParallelFor runs fn over [0,n) in parallel chunks. Exported for use by
// layer implementations that parallelize across a batch.
func ParallelFor(n int, fn func(i int)) {
	if n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	ParallelChunks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}
