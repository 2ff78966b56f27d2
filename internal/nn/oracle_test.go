package nn

import (
	"fmt"
	"math"
	"time"

	"shredder/internal/tensor"
)

// This file is the oracle every plan is pinned to: the tape-based autograd
// that ran training, noise learning and inference before the compiled plans
// (compile.go) replaced it. Its arithmetic is unchanged — a plan's outputs,
// input gradients and weight gradients equal it bit for bit — so it stays,
// as test code, to hold them to it.
//
// A forward pass records the state its backward pass needs on an explicit
// per-call Tape; a nil tape records nothing. A FrozenParams tape skips the
// parameter gradients.

// tapeLayer is a Layer with its two oracle passes: every layer type of the
// package has them, in this file.
type tapeLayer interface {
	Layer
	// ForwardT computes the layer output for a batch, recording backward
	// state on tape (nothing when tape is nil).
	ForwardT(tape *Tape, x *tensor.Tensor, train bool) *tensor.Tensor
	// BackwardT consumes ∂loss/∂output of the matching ForwardT on tape
	// and returns ∂loss/∂input, accumulating parameter gradients unless
	// tape.FrozenParams is set.
	BackwardT(tape *Tape, grad *tensor.Tensor) *tensor.Tensor
}

// Tape is an explicit per-call execution context for the autograd
// substrate. A forward pass records every intermediate buffer its backward
// pass will need on the tape (a stack: one entry per ForwardT call), and
// BackwardT consumes the entries in reverse order. Because all state lives
// on the tape rather than on the layer structs, any number of
// forward/backward passes may be in flight over one shared network — one
// tape per in-flight pass.
//
// A nil *Tape is the discard mode: ForwardT computes the output without
// recording anything (this is the inference path), and BackwardT through a
// nil tape panics.
type Tape struct {
	// FrozenParams makes BackwardT skip parameter-gradient computation
	// entirely: only ∂loss/∂input flows. Shredder never updates the network
	// weights, so its noise training and the inversion attack both run with
	// frozen parameters, saving the dW/db GEMMs and making backward passes
	// free of writes to shared layer state.
	FrozenParams bool
	// RNG, when non-nil, supplies the tape's private randomness (dropout
	// masks). Concurrent training runs give each tape its own seeded RNG so
	// their random streams are independent and reproducible. When nil,
	// layers fall back to their construction-time RNG (one generator per
	// layer: not reentrant).
	RNG *tensor.RNG

	entries []tapeEntry
}

// tapeEntry is one recorded forward step: the layer that pushed it and the
// state its backward pass needs.
type tapeEntry struct {
	layer Layer
	state any
}

// NewTape returns an empty recording tape.
func NewTape() *Tape { return &Tape{} }

// NewFrozenTape returns an empty tape in FrozenParams mode — the context
// for training through a frozen network (noise training, inversion
// attacks).
func NewFrozenTape() *Tape { return &Tape{FrozenParams: true} }

// Reset truncates the tape for reuse, keeping its configuration and
// storage. Call it between iterations when reusing one tape in a loop.
func (t *Tape) Reset() {
	if t == nil {
		return
	}
	for i := range t.entries {
		t.entries[i] = tapeEntry{} // drop references so buffers can be collected
	}
	t.entries = t.entries[:0]
}

// push records one forward step. A nil tape discards the state.
func (t *Tape) push(l Layer, state any) {
	if t == nil {
		return
	}
	t.entries = append(t.entries, tapeEntry{layer: l, state: state})
}

// pop consumes the most recent forward step, which must belong to l:
// backward passes must unwind the tape in exact reverse forward order.
func (t *Tape) pop(l Layer) any {
	if t == nil {
		panic(fmt.Sprintf("nn: %s.BackwardT through a discarded (nil) tape", l.Name()))
	}
	if len(t.entries) == 0 {
		panic(fmt.Sprintf("nn: %s.BackwardT without a matching ForwardT on this tape", l.Name()))
	}
	e := t.entries[len(t.entries)-1]
	if e.layer != l {
		panic(fmt.Sprintf("nn: %s.BackwardT out of order: tape top belongs to %s", l.Name(), e.layer.Name()))
	}
	t.entries[len(t.entries)-1] = tapeEntry{}
	t.entries = t.entries[:len(t.entries)-1]
	return e.state
}

// frozen reports whether parameter gradients should be skipped.
func (t *Tape) frozen() bool { return t != nil && t.FrozenParams }

// rng returns the tape's RNG, or fallback when the tape carries none.
func (t *Tape) rng(fallback *tensor.RNG) *tensor.RNG {
	if t != nil && t.RNG != nil {
		return t.RNG
	}
	return fallback
}

// checkBatched panics unless x has at least rank 2 ([N, ...]).
func checkBatched(layer string, x *tensor.Tensor) {
	if x.Rank() < 2 {
		panic(fmt.Sprintf("nn: %s expects batched input [N,...], got shape %v", layer, x.Shape()))
	}
}

// ForwardT runs the full network on a batch, recording backward state on
// tape. With a nil tape nothing is recorded and any number of goroutines may
// run it concurrently over one shared network: that form is the oracle the
// compiled inference plans (compile.go) are tested against, bit for bit.
// Serving code does not call it — every inference runs a plan.
func (s *Sequential) ForwardT(tape *Tape, x *tensor.Tensor, train bool) *tensor.Tensor {
	return s.ForwardRangeT(tape, x, 0, len(s.layers), train)
}

// ForwardRangeT runs layers [from, to) on a batch, recording backward state
// on tape. It is how split execution runs the local part L (layers
// [0,cut)) and remote part R (layers [cut, len)) — each in-flight pass
// carries its own tape, so one shared network serves many concurrent
// forward (and forward/backward) passes.
func (s *Sequential) ForwardRangeT(tape *Tape, x *tensor.Tensor, from, to int, train bool) *tensor.Tensor {
	if from < 0 || to > len(s.layers) || from > to {
		panic(fmt.Sprintf("nn: ForwardRangeT [%d,%d) out of bounds for %d layers", from, to, len(s.layers)))
	}
	if p := s.activeProfiler(); p != nil {
		for _, l := range s.layers[from:to] {
			t0 := time.Now()
			x = l.(tapeLayer).ForwardT(tape, x, train)
			p.ObserveLayer(l.Name(), false, time.Since(t0), int64(x.Len())*8)
		}
		return x
	}
	for _, l := range s.layers[from:to] {
		x = l.(tapeLayer).ForwardT(tape, x, train)
	}
	return x
}

// BackwardT propagates the output gradient through the whole network in
// reverse, consuming the tape, and returns the input gradient.
func (s *Sequential) BackwardT(tape *Tape, grad *tensor.Tensor) *tensor.Tensor {
	return s.BackwardRangeT(tape, grad, 0, len(s.layers))
}

// BackwardRangeT propagates the gradient through layers [from, to) in
// reverse, consuming the matching ForwardRangeT's tape entries, and returns
// ∂loss/∂(input of layer from). Shredder's noise training backpropagates
// over the remote part only: the returned gradient with respect to R's
// input *is* ∂loss/∂n, since a' = a + n.
func (s *Sequential) BackwardRangeT(tape *Tape, grad *tensor.Tensor, from, to int) *tensor.Tensor {
	if from < 0 || to > len(s.layers) || from > to {
		panic(fmt.Sprintf("nn: BackwardRangeT [%d,%d) out of bounds for %d layers", from, to, len(s.layers)))
	}
	if p := s.activeProfiler(); p != nil {
		for i := to - 1; i >= from; i-- {
			t0 := time.Now()
			grad = s.layers[i].(tapeLayer).BackwardT(tape, grad)
			p.ObserveLayer(s.layers[i].Name(), true, time.Since(t0), int64(grad.Len())*8)
		}
		return grad
	}
	for i := to - 1; i >= from; i-- {
		grad = s.layers[i].(tapeLayer).BackwardT(tape, grad)
	}
	return grad
}

// convState is the tape record of one Conv2D forward pass.
type convState struct {
	in         *tensor.Tensor
	geom       tensor.ConvGeom
	outH, outW int
}

// ForwardT runs the im2col-lowered convolution over a batch,
// sample-parallel.
func (c *Conv2D) ForwardT(tape *Tape, x *tensor.Tensor, train bool) *tensor.Tensor {
	checkBatched(c.name, x)
	g := c.geom(x.Shape()[1:])
	tape.push(c, convState{in: x, geom: g, outH: g.OutH(), outW: g.OutW()})
	return c.compute(x, g)
}

// compute runs the im2col-lowered convolution over a batch. It reads only
// the layer's parameters, never mutable layer state.
func (c *Conv2D) compute(x *tensor.Tensor, g tensor.ConvGeom) *tensor.Tensor {
	n := x.Dim(0)
	outH, outW := g.OutH(), g.OutW()
	out := tensor.New(n, c.OutC, outH, outW)
	p := outH * outW
	ckk := c.InC * c.KH * c.KW
	tensor.ParallelFor(n, func(i int) {
		cols := tensor.New(p, ckk) // [P, CKK]
		prod := tensor.New(p, c.OutC)
		tensor.Im2ColInto(cols, x.Slice(i), g)
		tensor.MatMulT2Into(prod, cols, c.W.Value) // [P, OutC]
		dst := out.Slice(i).Data()                 // [OutC, P] layout
		bias := c.B.Value.Data()
		pd := prod.Data()
		for pos := 0; pos < p; pos++ {
			row := pd[pos*c.OutC:]
			for oc := 0; oc < c.OutC; oc++ {
				dst[oc*p+pos] = row[oc] + bias[oc]
			}
		}
	})
	return out
}

// BackwardT implements Layer. It recomputes im2col from the recorded input
// rather than taping column matrices, trading FLOPs for memory. Under
// FrozenParams the weight/bias gradients — and the im2col they need — are
// skipped entirely: only ∂loss/∂input is produced.
func (c *Conv2D) BackwardT(tape *Tape, grad *tensor.Tensor) *tensor.Tensor {
	st := tape.pop(c).(convState)
	x := st.in
	n := x.Dim(0)
	g := st.geom
	p := st.outH * st.outW
	if grad.Dim(0) != n || grad.Len() != n*c.OutC*p {
		panic(fmt.Sprintf("nn: %s backward grad shape %v does not match forward output", c.name, grad.Shape()))
	}
	frozen := tape.frozen()
	dx := tensor.New(x.Shape()...)
	ckk := c.InC * c.KH * c.KW

	// Per-sample weight/bias gradients are accumulated into private buffers
	// and reduced at the end so the batch loop can run in parallel without
	// locking.
	var dWs, dBs []*tensor.Tensor
	if !frozen {
		dWs = make([]*tensor.Tensor, n)
		dBs = make([]*tensor.Tensor, n)
	}
	tensor.ParallelFor(n, func(i int) {
		// Reassemble grad slice [OutC, P] into G [P, OutC].
		gi := grad.Slice(i).Data()
		G := tensor.New(p, c.OutC)
		gd := G.Data()
		for oc := 0; oc < c.OutC; oc++ {
			row := gi[oc*p:]
			for pos := 0; pos < p; pos++ {
				gd[pos*c.OutC+oc] = row[pos]
			}
		}
		if !frozen {
			cols := tensor.New(p, ckk) // [P, CKK]
			tensor.Im2ColInto(cols, x.Slice(i), g)
			dWs[i] = tensor.MatMulT1(G, cols) // [OutC, CKK]
			db := tensor.New(c.OutC)
			dbd := db.Data()
			for pos := 0; pos < p; pos++ {
				row := gd[pos*c.OutC:]
				for oc := 0; oc < c.OutC; oc++ {
					dbd[oc] += row[oc]
				}
			}
			dBs[i] = db
		}
		dcols := tensor.MatMul(G, c.W.Value) // [P, CKK]
		dx.Slice(i).CopyFrom(col2im(dcols, g))
	})
	if !frozen {
		for i := 0; i < n; i++ {
			c.W.Grad.AddInPlace(dWs[i])
			c.B.Grad.AddInPlace(dBs[i])
		}
	}
	return dx
}

// col2im scatters a column matrix [OutH·OutW, C·KH·KW] back into a fresh
// image [C,H,W], adding overlapping contributions positions ascending: the
// adjoint of im2col, as the tape's convolution backward has always run it.
func col2im(cols *tensor.Tensor, g tensor.ConvGeom) *tensor.Tensor {
	img := tensor.New(g.InC, g.InH, g.InW)
	dst, src := img.Data(), cols.Data()
	outW, rowLen := g.OutW(), g.InC*g.KH*g.KW
	for pos := 0; pos < g.OutH()*outW; pos++ {
		iy0, ix0 := pos/outW*g.Stride-g.Pad, pos%outW*g.Stride-g.Pad
		row := src[pos*rowLen:]
		for t := 0; t < rowLen; t++ {
			c, ky, kx := t/(g.KH*g.KW), t/g.KW%g.KH, t%g.KW
			if iy, ix := iy0+ky, ix0+kx; iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
				dst[(c*g.InH+iy)*g.InW+ix] += row[t]
			}
		}
	}
	return img
}

// ForwardT implements Layer: y = x·Wᵀ + b, taping the flattened input.
func (l *Linear) ForwardT(tape *Tape, x *tensor.Tensor, train bool) *tensor.Tensor {
	checkBatched(l.name, x)
	x2 := x.Reshape(x.Dim(0), -1)
	if x2.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: %s expects %d inputs, got %d", l.name, l.In, x2.Dim(1)))
	}
	tape.push(l, x2)
	return l.compute(x2)
}

// compute reads only the layer's parameters, never mutable layer state.
func (l *Linear) compute(x2 *tensor.Tensor) *tensor.Tensor {
	n := x2.Dim(0)
	out := tensor.MatMulT2(x2, l.W.Value) // [N, Out]
	od := out.Data()
	bd := l.B.Value.Data()
	for i := 0; i < n; i++ {
		row := od[i*l.Out:]
		for j := 0; j < l.Out; j++ {
			row[j] += bd[j]
		}
	}
	return out
}

// BackwardT implements Layer. Under FrozenParams the dW GEMM and bias
// reduction are skipped: only ∂loss/∂input is produced.
func (l *Linear) BackwardT(tape *Tape, grad *tensor.Tensor) *tensor.Tensor {
	x2 := tape.pop(l).(*tensor.Tensor)
	n := x2.Dim(0)
	g2 := grad.Reshape(n, l.Out)
	if !tape.frozen() {
		l.W.Grad.AddInPlace(tensor.MatMulT1(g2, x2)) // [Out, In]
		gd := g2.Data()
		bg := l.B.Grad.Data()
		for i := 0; i < n; i++ {
			row := gd[i*l.Out:]
			for j := 0; j < l.Out; j++ {
				bg[j] += row[j]
			}
		}
	}
	return tensor.MatMul(g2, l.W.Value) // [N, In]
}

// ForwardT implements Layer.
func (r *ReLU) ForwardT(tape *Tape, x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	xd, od := x.Data(), out.Data()
	for i, v := range xd {
		if v > 0 {
			od[i] = v
		}
	}
	tape.push(r, out)
	return out
}

// BackwardT implements Layer.
func (r *ReLU) BackwardT(tape *Tape, grad *tensor.Tensor) *tensor.Tensor {
	fwd := tape.pop(r).(*tensor.Tensor)
	if grad.Len() != fwd.Len() {
		panic("nn: ReLU backward grad size mismatch")
	}
	out := tensor.New(grad.Shape()...)
	gd, od, fd := grad.Data(), out.Data(), fwd.Data()
	for i, v := range fd {
		if v > 0 {
			od[i] = gd[i]
		}
	}
	return out
}

// ForwardT implements Layer: a reshape, taping the original shape.
func (f *Flatten) ForwardT(tape *Tape, x *tensor.Tensor, train bool) *tensor.Tensor {
	checkBatched(f.name, x)
	tape.push(f, append([]int(nil), x.Shape()...))
	return x.Reshape(x.Dim(0), -1)
}

// BackwardT implements Layer.
func (f *Flatten) BackwardT(tape *Tape, grad *tensor.Tensor) *tensor.Tensor {
	shape := tape.pop(f).([]int)
	return grad.Reshape(shape...)
}

// ForwardT implements Layer. A nil mask on the tape marks an identity
// (inference-mode) pass.
func (d *Dropout) ForwardT(tape *Tape, x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.P == 0 {
		tape.push(d, (*tensor.Tensor)(nil))
		return x
	}
	rng := tape.rng(d.rng)
	out := tensor.New(x.Shape()...)
	mask := tensor.New(x.Shape()...)
	md := mask.Data()
	keep := 1 / (1 - d.P)
	xd, od := x.Data(), out.Data()
	for i := range xd {
		if rng.Float64() < d.P {
			md[i] = 0
		} else {
			md[i] = keep
			od[i] = xd[i] * keep
		}
	}
	tape.push(d, mask)
	return out
}

// BackwardT implements Layer.
func (d *Dropout) BackwardT(tape *Tape, grad *tensor.Tensor) *tensor.Tensor {
	mask := tape.pop(d).(*tensor.Tensor)
	if mask == nil { // inference-mode forward: identity
		return grad
	}
	out := tensor.New(grad.Shape()...)
	gd, od, md := grad.Data(), out.Data(), mask.Data()
	for i := range gd {
		od[i] = gd[i] * md[i]
	}
	return out
}

// maxPoolState is the tape record of one MaxPool2D forward pass.
type maxPoolState struct {
	shape  []int
	argmax []int // flat input index per output element
}

// ForwardT implements Layer. With a nil tape the argmax routing table is
// never built — the discarded-tape path does strictly less work.
func (m *MaxPool2D) ForwardT(tape *Tape, x *tensor.Tensor, train bool) *tensor.Tensor {
	checkBatched(m.name, x)
	os := m.OutShape(x.Shape()[1:])
	oh, ow := os[1], os[2]
	var argmax []int
	if tape != nil {
		argmax = make([]int, x.Dim(0)*x.Dim(1)*oh*ow)
	}
	out := m.compute(x, oh, ow, argmax)
	tape.push(m, maxPoolState{shape: append([]int(nil), x.Shape()...), argmax: argmax})
	return out
}

// compute runs the window sweep; when argmax is non-nil it records the flat
// input index of each output's maximum for BackwardT.
func (m *MaxPool2D) compute(x *tensor.Tensor, oh, ow int, argmax []int) *tensor.Tensor {
	n, c := x.Dim(0), x.Dim(1)
	h, w := x.Dim(2), x.Dim(3)
	out := tensor.New(n, c, oh, ow)
	xd, od := x.Data(), out.Data()
	tensor.ParallelFor(n, func(i int) {
		for ch := 0; ch < c; ch++ {
			in := xd[(i*c+ch)*h*w:]
			outPlane := od[(i*c+ch)*oh*ow:]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					y0, x0 := oy*m.Stride, ox*m.Stride
					best := in[y0*w+x0]
					bi := y0*w + x0
					for ky := 0; ky < m.K; ky++ {
						for kx := 0; kx < m.K; kx++ {
							idx := (y0+ky)*w + (x0 + kx)
							if in[idx] > best {
								best, bi = in[idx], idx
							}
						}
					}
					outPlane[oy*ow+ox] = best
					if argmax != nil {
						argmax[(i*c+ch)*oh*ow+oy*ow+ox] = (i*c+ch)*h*w + bi
					}
				}
			}
		}
	})
	return out
}

// BackwardT implements Layer.
func (m *MaxPool2D) BackwardT(tape *Tape, grad *tensor.Tensor) *tensor.Tensor {
	st := tape.pop(m).(maxPoolState)
	if grad.Len() != len(st.argmax) {
		panic("nn: MaxPool2D backward grad size mismatch")
	}
	dx := tensor.New(st.shape...)
	dd, gd := dx.Data(), grad.Data()
	for i, src := range st.argmax {
		dd[src] += gd[i]
	}
	return dx
}

// lrnState is the tape record of one forward pass: the input and the
// per-element denominator s_c = k + (alpha/n)·Σ x_j².
type lrnState struct {
	in *tensor.Tensor
	s  *tensor.Tensor
}

// ForwardT implements Layer. With a nil tape the denominator tensor is
// never materialized — the discarded-tape path allocates strictly less.
func (l *LocalResponseNorm) ForwardT(tape *Tape, x *tensor.Tensor, train bool) *tensor.Tensor {
	checkBatched(l.name, x)
	if x.Rank() != 4 {
		panic("nn: LRN expects [N,C,H,W] input")
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	hw := h * w
	out := tensor.New(x.Shape()...)
	var sd []float64
	var sT *tensor.Tensor
	if tape != nil {
		sT = tensor.New(x.Shape()...)
		sd = sT.Data()
	}
	xd, od := x.Data(), out.Data()
	coef := l.Alpha / float64(l.N)
	tensor.ParallelFor(n, func(i int) {
		base := i * c * hw
		for ch := 0; ch < c; ch++ {
			lo, hi := l.window(ch, c)
			for p := 0; p < hw; p++ {
				sum := 0.0
				for j := lo; j < hi; j++ {
					v := xd[base+j*hw+p]
					sum += v * v
				}
				s := l.K + coef*sum
				idx := base + ch*hw + p
				if sd != nil {
					sd[idx] = s
				}
				od[idx] = xd[idx] * math.Pow(s, -l.Beta)
			}
		}
	})
	tape.push(l, lrnState{in: x, s: sT})
	return out
}

// BackwardT implements Layer.
func (l *LocalResponseNorm) BackwardT(tape *Tape, grad *tensor.Tensor) *tensor.Tensor {
	st := tape.pop(l).(lrnState)
	x := st.in
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	hw := h * w
	dx := tensor.New(x.Shape()...)
	xd, sd, gd, dd := x.Data(), st.s.Data(), grad.Data(), dx.Data()
	coef := 2 * l.Beta * l.Alpha / float64(l.N)
	tensor.ParallelFor(n, func(i int) {
		base := i * c * hw
		for p := 0; p < hw; p++ {
			// t_c = g_c · x_c · s_c^{-β-1}, precomputed per channel column.
			for j := 0; j < c; j++ {
				idx := base + j*hw + p
				// direct term
				dd[idx] += gd[idx] * math.Pow(sd[idx], -l.Beta)
			}
			for j := 0; j < c; j++ {
				jdx := base + j*hw + p
				xj := xd[jdx]
				if xj == 0 {
					continue
				}
				// channels c whose window contains j: window is symmetric
				// around c, so iterate candidates and test membership.
				lo := j - (l.N-1)/2
				hi := j + l.N/2 + 1
				if lo < 0 {
					lo = 0
				}
				if hi > c {
					hi = c
				}
				acc := 0.0
				for ch := lo; ch < hi; ch++ {
					wlo, whi := l.window(ch, c)
					if j < wlo || j >= whi {
						continue
					}
					cdx := base + ch*hw + p
					acc += gd[cdx] * xd[cdx] * math.Pow(sd[cdx], -l.Beta-1)
				}
				dd[jdx] -= coef * xj * acc
			}
		}
	})
	return dx
}
