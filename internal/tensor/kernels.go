package tensor

import "fmt"

// This file is the dtype-parameterized reference kernel layer: matrix
// multiplication in its three transposition variants and im2col convolution
// lowering, each written once, generically over the element type F. The
// exported functions over float64 Tensors (MatMul*, Im2ColInto) and
// MatMulT2BlockedDense, over a Dense of either dtype, delegate to these
// kernels. Compiled plans run the direct kernel of direct.go, which these are
// the reference for: matmulT2Kernel's per-output summation order is the one
// every plan is pinned to, and matmulT1Rows is what a training plan's
// convolution weight gradient runs (ConvBackTaps.WeightGrad).
//
// float32 and float64 have distinct gcshapes, so the compiler stencils a
// separate, fully specialized instantiation per dtype: the inner loops
// compile to the same scalar FP code a hand-written concrete version would,
// and the float32 instantiation moves half the bytes per element through
// the cache hierarchy.

// Float is the element-type constraint of the kernel layer.
type Float interface {
	~float32 | ~float64
}

// Each matmul kernel is a serial row-range body plus a dispatcher that runs
// it inline for small products and over ParallelChunks for large ones. The
// body is a plain function, not a closure, so the serial branch — every
// single-sample inference and most training steps — allocates nothing; the
// chunking closure exists only on the parallel branch. Rows are independent
// and each output element is summed over p in ascending order whatever the
// chunking, so results do not depend on which branch ran.

// serialMatmul reports whether an [m,n] product is too small to fan out.
func serialMatmul(m, n int) bool { return m*n < parallelThreshold || m < 2 }

// matmulKernel computes dst = a·b for row-major a [m,k], b [k,n],
// dst [m,n]. Every element of dst is overwritten. The loop order is i-k-j
// so the hot loop streams both b and the output row.
func matmulKernel[F Float](dst, a, b []F, m, k, n int) {
	if serialMatmul(m, n) {
		matmulRows(dst, a, b, k, n, 0, m)
		return
	}
	ParallelChunks(m, func(lo, hi int) { matmulRows(dst, a, b, k, n, lo, hi) })
}

func matmulRows[F Float](dst, a, b []F, k, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		out := dst[i*n : (i+1)*n]
		for j := range out {
			out[j] = 0
		}
		ar := a[i*k : (i+1)*k]
		for p, av := range ar {
			if av == 0 {
				continue
			}
			br := b[p*n : (p+1)*n]
			for j, bv := range br {
				out[j] += av * bv
			}
		}
	}
}

// matmulT1Kernel computes dst += aᵀ·b for a [k,m], b [k,n], dst [m,n].
// dst must be zeroed by the caller (the float64 wrapper allocates it
// zero-filled; kernels accumulate so gradient callers can reuse buffers).
func matmulT1Kernel[F Float](dst, a, b []F, k, m, n int) {
	if serialMatmul(m, n) {
		matmulT1Rows(dst, a, b, k, m, n, 0, m)
		return
	}
	ParallelChunks(m, func(lo, hi int) { matmulT1Rows(dst, a, b, k, m, n, lo, hi) })
}

func matmulT1Rows[F Float](dst, a, b []F, k, m, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		o := dst[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := a[p*m+i]
			if av == 0 {
				continue
			}
			br := b[p*n : (p+1)*n]
			for j, bv := range br {
				o[j] += av * bv
			}
		}
	}
}

// matmulT2Kernel computes dst = a·bᵀ for a [m,k], b [n,k], dst [m,n].
// Every element of dst is overwritten, so non-zeroed scratch is a valid
// destination. This is the kernel behind the linear layer and im2col-lowered
// convolution (cols · Wᵀ) of nn's tape oracle.
func matmulT2Kernel[F Float](dst, a, b []F, m, k, n int) {
	if serialMatmul(m, n) {
		matmulT2Rows(dst, a, b, k, n, 0, m)
		return
	}
	ParallelChunks(m, func(lo, hi int) { matmulT2Rows(dst, a, b, k, n, lo, hi) })
}

func matmulT2Rows[F Float](dst, a, b []F, k, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		ar := a[i*k : (i+1)*k]
		o := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			br := b[j*k : (j+1)*k]
			var s F
			for p, av := range ar {
				s += av * br[p]
			}
			o[j] = s
		}
	}
}

// matmulT2BlockedKernel computes dst = a·bᵀ like matmulT2Kernel, but
// register-blocked four columns wide: each pass over a row of a feeds four
// independent accumulators, quartering the loads of a and breaking the
// serial dependence of a single running sum. The four accumulators belong
// to four different outputs, and each still sums its products over p in
// ascending order — exactly matmulT2Kernel's order for that output — so the
// two kernels agree bit for bit (pinned by TestBlockedMatMulT2Bitwise); the
// blocking changes which loads are shared, not any sum. Its one caller
// outside the tests is the benchmark's tensor.matmul_f32_blocked_gflops probe
// (MatMulT2BlockedDense).
func matmulT2BlockedKernel[F Float](dst, a, b []F, m, k, n int) {
	if serialMatmul(m, n) {
		matmulT2BlockedRows(dst, a, b, k, n, 0, m)
		return
	}
	ParallelChunks(m, func(lo, hi int) { matmulT2BlockedRows(dst, a, b, k, n, lo, hi) })
}

func matmulT2BlockedRows[F Float](dst, a, b []F, k, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		ar := a[i*k : (i+1)*k]
		o := dst[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 F
			for p, av := range ar {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			o[j], o[j+1], o[j+2], o[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			br := b[j*k : (j+1)*k]
			var s F
			for p, av := range ar {
				s += av * br[p]
			}
			o[j] = s
		}
	}
}

// im2colKernel lowers one image of shape [C,H,W] (flat, row-major) into a
// column matrix [OutH*OutW, C*KH*KW]: each row is the unrolled receptive
// field of one output position, with zero padding materialized. Every
// element of dst is overwritten.
func im2colKernel[F Float](dst, src []F, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	rowLen := g.InC * g.KH * g.KW
	for oy := 0; oy < outH; oy++ {
		iy0 := oy*g.Stride - g.Pad
		for ox := 0; ox < outW; ox++ {
			ix0 := ox*g.Stride - g.Pad
			row := dst[(oy*outW+ox)*rowLen:]
			p := 0
			for c := 0; c < g.InC; c++ {
				plane := src[c*g.InH*g.InW:]
				for ky := 0; ky < g.KH; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= g.InH {
						for kx := 0; kx < g.KW; kx++ {
							row[p] = 0
							p++
						}
						continue
					}
					base := iy * g.InW
					for kx := 0; kx < g.KW; kx++ {
						ix := ix0 + kx
						if ix < 0 || ix >= g.InW {
							row[p] = 0
						} else {
							row[p] = plane[base+ix]
						}
						p++
					}
				}
			}
		}
	}
}

// MatMulT2BlockedDense computes dst = a·bᵀ with the register-blocked
// kernel: the shapes of MatMulT2Into and, element for element, the result
// of matmulT2Kernel (see matmulT2BlockedKernel).
func MatMulT2BlockedDense[F Float](dst, a, b *Dense[F]) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[0]
	if b.shape[1] != k || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulT2BlockedDense shape mismatch %v vs %v vs %v", dst.shape, a.shape, b.shape))
	}
	matmulT2BlockedKernel(dst.data, a.data, b.data, m, k, n)
}
