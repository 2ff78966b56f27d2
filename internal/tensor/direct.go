package tensor

import (
	"fmt"
	"math"
)

// This file is the kernel of the compiled inference plan (nn.CompiledNet):
// one direct convolution — and the linear layer as its one-position case —
// over weights packed once into output-channel panels.
//
// A layer's [n, k] weights are re-laid as ⌈n/PanelWidth⌉ panels [k][PanelWidth]
// (the last one zero-padded), so the PanelWidth weights one tap contributes
// to PanelWidth outputs sit side by side. A convolution copies its input once
// into a zero-bordered scratch, resolves a table tap (c,ky,kx) → offset from
// an output position's corner in that scratch, and for each panel walks the
// output rows leafRows positions at a time. It never builds im2col's column
// matrix: what im2col would have copied is read in place through the table.
//
// All arithmetic sits in the leaf:
//
//	acc[r][l] = Σ_p x[r·xs + off[p]] · w[r·ws + p·PanelWidth + l]     r < n
//
// with p ascending and a multiply and an add rounded separately. Every
// accumulator is a different output, and each is summed over p in exactly
// matmulT2Kernel's order — a padded tap multiplies the materialised zero
// im2col wrote — so kernel and im2col + matmul agree bit for bit at both
// dtypes whatever the lanes do in parallel. The leaf exists twice: leafGo,
// compiled everywhere, and the AVX2 ones of leaf_amd64.s (which must use
// VMULP* + VADDP*, never FMA: gc on amd64 does not contract s += a*b).
// Nothing above the leaf knows which one runs.

const (
	// PanelWidth is the number of outputs in one weight panel: the leaf's lanes.
	PanelWidth = 8
	// leafRows is the number of rows — output positions of a convolution,
	// panels of a linear layer — one leaf call accumulates.
	leafRows = 4
	// accLen is the number of accumulators of one leaf call. They live in the
	// caller's scratch, not in a local of the kernel: the leaf is called
	// through a variable, so a local would move to the heap on every call.
	accLen = leafRows * PanelWidth
	// LinearScratch is the number of scratch elements Packed.Linear needs.
	LinearScratch = accLen
)

// leafFunc is the leaf's signature. Rows n ≤ r < leafRows of acc are left
// unspecified. An assembly leaf checks no bound: the kernels below call it
// only with indices derived from a validated geometry, and leafGo, which does
// check, runs the same calls in the tests.
type leafFunc[F Float] func(acc *[accLen]F, n int, x []F, xs int, off []int32, w []F, ws int)

type leaves struct {
	f64 leafFunc[float64]
	f32 leafFunc[float32]
}

var (
	goLeaves = leaves{leafGo[float64], leafGo[float32]}
	// vecLeaves are the vector leaves, where the architecture has them.
	vecLeaves leaves
	// vectorLeaf selects vecLeaves. The architecture's init sets it once,
	// from what the CPU and the OS support; tests clear it to run the Go leaf.
	vectorLeaf bool
)

// leafFor returns the leaf in use, at element type F.
func leafFor[F Float]() leafFunc[F] {
	l := &goLeaves
	if vectorLeaf {
		l = &vecLeaves
	}
	if f, ok := any(l.f64).(leafFunc[F]); ok {
		return f
	}
	return any(l.f32).(leafFunc[F])
}

// leafGo is the leaf in Go: the definition the assembly is held to.
func leafGo[F Float](acc *[accLen]F, n int, x []F, xs int, off []int32, w []F, ws int) {
	for r := 0; r < n; r++ {
		xr := x[r*xs:]
		wr := w[r*ws:][:len(off)*PanelWidth]
		var s0, s1, s2, s3, s4, s5, s6, s7 F
		// The loop is spelled for gc's bounds-check elimination: ranging over
		// off, or re-slicing wr as it goes, measured 10–25 % slower on the
		// zoo's geometries.
		for p := 0; p < len(off); p++ {
			v := xr[off[p]]
			wp := wr[p*PanelWidth : p*PanelWidth+PanelWidth : p*PanelWidth+PanelWidth]
			s0 += v * wp[0]
			s1 += v * wp[1]
			s2 += v * wp[2]
			s3 += v * wp[3]
			s4 += v * wp[4]
			s5 += v * wp[5]
			s6 += v * wp[6]
			s7 += v * wp[7]
		}
		a := acc[r*PanelWidth:][:PanelWidth]
		a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
}

// Epilogue is what a packed layer applies to each raw sum z of output j
// before storing it: z += Bias[j], then max(0, z) under ReLU.
type Epilogue[F Float] struct {
	Bias []F
	ReLU bool
}

// Packed is one convolution or linear layer ready for the direct kernel. It
// is immutable, so any number of goroutines may run it at once.
type Packed[F Float] struct {
	n, k   int
	panels []F     // [⌈n/PanelWidth⌉][k][PanelWidth]
	seq    []int32 // 0,1,…,k−1: the taps of the one-position (linear) case
	ep     Epilogue[F]
}

// Pack converts the row-major weights w [n, k] to F and lays them out in
// panels. The epilogue's slices are kept, not copied.
func Pack[F Float](w *Tensor, ep Epilogue[F]) *Packed[F] {
	if w.Rank() != 2 || w.Len() == 0 || len(ep.Bias) != w.shape[0] {
		panic(fmt.Sprintf("tensor: Pack weights %v with an epilogue of %d outputs", w.shape, len(ep.Bias)))
	}
	n, k := w.shape[0], w.shape[1]
	p := &Packed[F]{n: n, k: k, ep: ep, seq: make([]int32, k),
		panels: make([]F, (n+PanelWidth-1)/PanelWidth*k*PanelWidth)}
	for j := 0; j < n; j++ {
		row := w.data[j*k : (j+1)*k]
		dst := p.panels[j/PanelWidth*k*PanelWidth+j%PanelWidth:]
		for t, v := range row {
			dst[t*PanelWidth] = F(v)
		}
	}
	for t := range p.seq {
		p.seq[t] = int32(t)
	}
	return p
}

// PackTransposed packs wᵀ for the backward-data pass of the layer whose
// row-major weights are w [n, k]: k outputs — the layer's inputs, or a
// convolution's taps — each summed over the layer's n outputs in ascending
// order, which is matmulRows' order for G·W. The raw sums are the result:
// the epilogue is a bias of zeros, which changes no bit of a sum that started
// from +0 (such a sum is never −0).
func PackTransposed[F Float](w *Tensor) *Packed[F] {
	if w.Rank() != 2 || w.Len() == 0 {
		panic(fmt.Sprintf("tensor: PackTransposed weights %v", w.shape))
	}
	n, k := w.shape[0], w.shape[1]
	p := &Packed[F]{n: k, k: n, seq: make([]int32, n), ep: Epilogue[F]{Bias: make([]F, k)},
		panels: make([]F, (k+PanelWidth-1)/PanelWidth*n*PanelWidth)}
	for t := 0; t < n; t++ {
		for j, v := range w.data[t*k : (t+1)*k] {
			p.panels[j/PanelWidth*n*PanelWidth+t*PanelWidth+j%PanelWidth] = F(v)
		}
		p.seq[t] = int32(t)
	}
	return p
}

// ReLU reports whether the epilogue ends in max(0, z): a backward pass gates
// the gradient by the sign of this layer's output.
func (p *Packed[F]) ReLU() bool { return p.ep.ReLU }

// finish applies the epilogue to the raw sum z of output j.
func (p *Packed[F]) finish(j int, z F) F {
	z += p.ep.Bias[j]
	if p.ep.ReLU && !(z > 0) {
		z = 0
	}
	return z
}

// ConvTaps is a convolution geometry resolved for the direct kernel.
type ConvTaps struct {
	Geom ConvGeom
	// Scratch is the number of scratch elements Conv needs: the leaf's
	// accumulators and, under padding, the zero-bordered copy of the input.
	Scratch int
	off     []int32 // tap (c,ky,kx) → offset from a position's corner
	pw      int     // row length of the (padded) image
}

// Taps resolves g, which must be valid.
func (g ConvGeom) Taps() *ConvTaps {
	ph, pw := g.InH+2*g.Pad, g.InW+2*g.Pad
	if g.InC*ph*pw > math.MaxInt32 {
		panic(fmt.Sprintf("tensor: conv geometry %+v is too large for the direct kernel", g))
	}
	t := &ConvTaps{Geom: g, Scratch: accLen, pw: pw, off: make([]int32, 0, g.InC*g.KH*g.KW)}
	if g.Pad > 0 {
		t.Scratch += g.InC * ph * pw
	}
	for c := 0; c < g.InC; c++ {
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				t.off = append(t.off, int32((c*ph+ky)*pw+kx))
			}
		}
	}
	return t
}

// padInto copies the image src [C,H,W] into the middle of dst
// [C,H+2·Pad,W+2·Pad] and zeroes the border, so every element of dst is
// written and non-zeroed scratch is a valid destination.
func padInto[F Float](dst, src []F, g ConvGeom) {
	pad, pw := g.Pad, g.InW+2*g.Pad
	plane := (g.InH + 2*g.Pad) * pw
	for c := 0; c < g.InC; c++ {
		d := dst[c*plane : (c+1)*plane]
		at := pad*pw + pad // the first interior element
		clear(d[:at])
		for iy := 0; iy < g.InH; iy++ {
			copy(d[at:at+g.InW], src[(c*g.InH+iy)*g.InW:])
			// The right border of this row and the left border of the next.
			clear(d[at+g.InW : at+pw])
			at += pw
		}
		clear(d[at:])
	}
}

// Conv computes the convolution of the image x [C,H,W] with the packed
// filters and applies the epilogue: y [n, OutH·OutW]. scratch holds at least
// t.Scratch elements of any content. Every element of y is written.
func (p *Packed[F]) Conv(y, x, scratch []F, t *ConvTaps) {
	g := t.Geom
	outH, outW := g.OutH(), g.OutW()
	positions := outH * outW
	if len(t.off) != p.k || len(x) != g.InC*g.InH*g.InW || len(y) != p.n*positions || len(scratch) < t.Scratch {
		panic(fmt.Sprintf("tensor: Packed.Conv got %d→%d elems (scratch %d) for %d filters of %d taps over %+v",
			len(x), len(y), len(scratch), p.n, p.k, g))
	}
	if positions == 1 && g.Pad == 0 && g.KH == g.InH && g.KW == g.InW {
		// The one window is the whole image and its taps are 0,1,…,k−1: a
		// linear layer, whose leaf rows are four panels instead of one
		// position computed four times (LeNet's conv2).
		p.Linear(y, x, scratch)
		return
	}
	acc := (*[accLen]F)(scratch)
	if g.Pad > 0 {
		padInto(scratch[accLen:t.Scratch], x, g)
		x = scratch[accLen:t.Scratch]
	}
	leaf := leafFor[F]()
	for j0 := 0; j0 < p.n; j0 += PanelWidth {
		w := p.panels[j0*p.k : (j0+PanelWidth)*p.k]
		lanes := min(PanelWidth, p.n-j0)
		for oy := 0; oy < outH; oy++ {
			row := x[oy*g.Stride*t.pw:]
			for ox := 0; ox < outW; ox += leafRows {
				rows := min(leafRows, outW-ox)
				leaf(acc, rows, row[ox*g.Stride:], g.Stride, t.off, w, 0)
				for l := 0; l < lanes; l++ {
					out := y[(j0+l)*positions+oy*outW+ox:][:rows]
					for r := range out {
						out[r] = p.finish(j0+l, acc[r*PanelWidth+l])
					}
				}
			}
		}
	}
}

// Linear computes y [n] = W·x [k] and applies the epilogue: the kernel's
// one-position case, its leaf rows being panels. scratch holds at least
// LinearScratch elements of any content.
func (p *Packed[F]) Linear(y, x, scratch []F) {
	if len(x) != p.k || len(y) != p.n {
		panic(fmt.Sprintf("tensor: Packed.Linear got %d→%d elems for a %d→%d layer", len(x), len(y), p.k, p.n))
	}
	acc := (*[accLen]F)(scratch)
	leaf := leafFor[F]()
	panel := p.k * PanelWidth
	for j0 := 0; j0 < p.n; j0 += leafRows * PanelWidth {
		rows := min(leafRows, (p.n-j0+PanelWidth-1)/PanelWidth)
		leaf(acc, rows, x, 0, p.seq, p.panels[j0*p.k:], panel)
		out := y[j0:min(j0+rows*PanelWidth, p.n)]
		for i := range out {
			out[i] = p.finish(j0+i, acc[i])
		}
	}
}

// ConvBackTaps is a convolution geometry resolved for ConvBackward.
type ConvBackTaps struct {
	Geom ConvGeom
	// Scratch is the number of scratch elements ConvBackward needs: the
	// leaf's accumulators and one output row of column gradients.
	Scratch int
	// WeightScratch is the number of scratch elements WeightGrad needs: the
	// column matrix and the transposed output gradient.
	WeightScratch int
	off           []int32 // output channel → offset of its plane in the output gradient
}

// BackTaps resolves g, which must be valid, for a convolution of outC filters.
func (g ConvGeom) BackTaps(outC int) *ConvBackTaps {
	positions := g.OutH() * g.OutW()
	if outC*positions > math.MaxInt32 {
		panic(fmt.Sprintf("tensor: conv geometry %+v × %d filters is too large for the direct kernel", g, outC))
	}
	ckk := g.InC * g.KH * g.KW
	t := &ConvBackTaps{Geom: g, Scratch: accLen + g.OutW()*ckk, WeightScratch: positions * (ckk + outC), off: make([]int32, outC)}
	for oc := range t.off {
		t.off[oc] = int32(oc * positions)
	}
	return t
}

// ConvBackward computes the input gradient dx [C,H,W] of a convolution from
// its output gradient gy [OutC, OutH·OutW], p being PackTransposed of the
// layer's weights. It is col2im(G·W) in the tape's association, bit for bit:
// a column gradient is the leaf's sum over OutC ascending — lanes are taps, so
// no lane ever adds two of col2im's terms — and each output row's column
// gradients are scatter-added by scatterRow, rows ascending, before the next
// row is computed, so an element of dx gathers its terms in ascending (oy, ox)
// as col2im adds them. scratch holds at least t.Scratch elements of any
// content. Every element of dx is written.
func (p *Packed[F]) ConvBackward(dx, gy, scratch []F, t *ConvBackTaps) {
	g := t.Geom
	outH, outW := g.OutH(), g.OutW()
	ckk := g.InC * g.KH * g.KW
	if len(t.off) != p.k || ckk != p.n || len(dx) != g.InC*g.InH*g.InW || len(gy) != p.k*outH*outW || len(scratch) < t.Scratch {
		panic(fmt.Sprintf("tensor: Packed.ConvBackward got %d←%d elems (scratch %d) for %d filters of %d taps over %+v",
			len(dx), len(gy), len(scratch), p.k, p.n, g))
	}
	if outH*outW == 1 && g.Pad == 0 && g.KH == g.InH && g.KW == g.InW {
		// The one window is the whole image: col2im adds each column
		// gradient to its own zeroed element, and a sum that started from +0
		// is never −0, so the scatter is a copy (see Conv).
		p.Linear(dx, gy, scratch)
		return
	}
	acc := (*[accLen]F)(scratch)
	strip := scratch[accLen:t.Scratch] // [ckk][outW]: tap-major, so a tap's row scatters in one run
	clear(dx)
	leaf := leafFor[F]()
	for oy := 0; oy < outH; oy++ {
		for j0 := 0; j0 < ckk; j0 += PanelWidth {
			w := p.panels[j0*p.k : (j0+PanelWidth)*p.k]
			lanes := min(PanelWidth, ckk-j0)
			for ox := 0; ox < outW; ox += leafRows {
				rows := min(leafRows, outW-ox)
				leaf(acc, rows, gy[oy*outW+ox:], 1, t.off, w, 0)
				for l := 0; l < lanes; l++ {
					dst := strip[(j0+l)*outW+ox:][:rows]
					for r := range dst {
						dst[r] = acc[r*PanelWidth+l]
					}
				}
			}
		}
		scatterRow(dx, strip, g, oy)
	}
}

// WeightGrad computes one sample's gradients of a convolution's weights and
// bias from its input x [C,H,W] and output gradient gy [OutC, OutH·OutW]:
// dw [OutC, C·KH·KW] = Gᵀ·cols, cols being x's im2col and G [positions, OutC]
// gy transposed, by MatMulT1's kernel, and db [OutC], every row of gy summed
// positions ascending — Conv2D's tape gradient of one sample, bit for bit. It
// runs on the calling goroutine. scratch holds at least t.WeightScratch
// elements of any content; every element of dw and db is written.
func (t *ConvBackTaps) WeightGrad(dw, db, gy, x, scratch []float64) {
	g := t.Geom
	outC, positions, ckk := len(t.off), g.OutH()*g.OutW(), g.InC*g.KH*g.KW
	if len(dw) != outC*ckk || len(db) != outC || len(gy) != outC*positions || len(x) != g.InC*g.InH*g.InW || len(scratch) < t.WeightScratch {
		panic(fmt.Sprintf("tensor: ConvBackTaps.WeightGrad got %d+%d←%d,%d elems (scratch %d) for %d filters over %+v",
			len(dw), len(db), len(gy), len(x), len(scratch), outC, g))
	}
	cols, G := scratch[:positions*ckk], scratch[positions*ckk:t.WeightScratch]
	im2colKernel(cols, x, g)
	for oc := range db {
		s := 0.0
		for pos, v := range gy[oc*positions : (oc+1)*positions] {
			G[pos*outC+oc] = v
			s += v
		}
		db[oc] = s
	}
	clear(dw)
	matmulT1Rows(dw, G, cols, positions, outC, ckk, 0, outC)
}

// scatterRow adds the column gradients of output row oy, strip [C·KH·KW][OutW],
// into the image dx: col2im for one row of positions. An element of dx takes
// its terms of this row in ascending ox, as col2im adds them — for a fixed
// element a later position reaches it through an earlier tap, so kx descends
// outside the run over ox.
func scatterRow[F Float](dx, strip []F, g ConvGeom, oy int) {
	outW := g.OutW()
	for c := 0; c < g.InC; c++ {
		for ky := 0; ky < g.KH; ky++ {
			iy := oy*g.Stride - g.Pad + ky
			if iy < 0 || iy >= g.InH {
				continue
			}
			row := dx[(c*g.InH+iy)*g.InW:][:g.InW]
			for kx := g.KW - 1; kx >= 0; kx-- {
				// Positions lo ≤ ox < hi put this tap inside the image.
				lo, hi := 0, outW
				if d := g.Pad - kx; d > 0 {
					lo = (d + g.Stride - 1) / g.Stride
				}
				if last := g.InW - 1 + g.Pad - kx; last < 0 {
					continue
				} else if last < (outW-1)*g.Stride {
					hi = last/g.Stride + 1
				}
				if lo >= hi {
					continue
				}
				src := strip[((c*g.KH+ky)*g.KW+kx)*outW:][lo:hi]
				at := lo*g.Stride + kx - g.Pad
				if g.Stride == 1 {
					dst := row[at:][:len(src)]
					for i, v := range src {
						dst[i] += v
					}
					continue
				}
				for _, v := range src {
					row[at] += v
					at += g.Stride
				}
			}
		}
	}
}
