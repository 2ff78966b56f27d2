package nn

import (
	"fmt"

	"shredder/internal/tensor"
)

// Conv2D is a 2-D convolution layer over [N, C, H, W] inputs, lowered to
// matrix multiplication via im2col. Weights have shape
// [OutC, InC*KH*KW] and biases [OutC].
type Conv2D struct {
	name        string
	InC, OutC   int
	KH, KW      int
	Stride, Pad int
	W, B        *Param
}

// convState is the tape record of one Conv2D forward pass.
type convState struct {
	in         *tensor.Tensor
	geom       tensor.ConvGeom
	outH, outW int
}

// NewConv2D constructs a convolution layer with He-initialized weights.
func NewConv2D(name string, inC, outC, kh, kw, stride, pad int, rng *tensor.RNG) *Conv2D {
	fanIn := inC * kh * kw
	w := tensor.New(outC, fanIn)
	HeInit(w, fanIn, rng)
	b := tensor.New(outC)
	return &Conv2D{
		name: name, InC: inC, OutC: outC, KH: kh, KW: kw, Stride: stride, Pad: pad,
		W: NewParam(name+".W", w), B: NewParam(name+".b", b),
	}
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// OutShape implements Layer.
func (c *Conv2D) OutShape(in []int) []int {
	g := c.geom(in)
	return []int{c.OutC, g.OutH(), g.OutW()}
}

func (c *Conv2D) geom(in []int) tensor.ConvGeom {
	if len(in) != 3 || in[0] != c.InC {
		panic(fmt.Sprintf("nn: %s expects per-sample shape [%d,H,W], got %v", c.name, c.InC, in))
	}
	g := tensor.ConvGeom{InC: c.InC, InH: in[1], InW: in[2], KH: c.KH, KW: c.KW, Stride: c.Stride, Pad: c.Pad}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}

// ForwardT implements Layer. The batch is processed sample-parallel, with
// the per-sample column and product matrices drawn from the tensor scratch
// pool so concurrent passes do not scale allocations with request rate.
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
		cols := tensor.GetScratch(p, ckk) // [P, CKK]
		prod := tensor.GetScratch(p, c.OutC)
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
		tensor.PutScratch(prod)
		tensor.PutScratch(cols)
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
		G := tensor.GetScratch(p, c.OutC)
		gd := G.Data()
		for oc := 0; oc < c.OutC; oc++ {
			row := gi[oc*p:]
			for pos := 0; pos < p; pos++ {
				gd[pos*c.OutC+oc] = row[pos]
			}
		}
		if !frozen {
			cols := tensor.GetScratch(p, ckk) // [P, CKK]
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
			tensor.PutScratch(cols)
		}
		dcols := tensor.GetScratch(p, ckk)
		tensor.MatMulInto(dcols, G, c.W.Value) // [P, CKK]
		dx.Slice(i).CopyFrom(tensor.Col2Im(dcols, g))
		tensor.PutScratch(dcols)
		tensor.PutScratch(G)
	})
	if !frozen {
		for i := 0; i < n; i++ {
			c.W.Grad.AddInPlace(dWs[i])
			c.B.Grad.AddInPlace(dBs[i])
		}
	}
	return dx
}

// MACs returns the multiply-accumulate count of one forward pass over a
// single sample with the given per-sample input shape — the computation
// term of the paper's cutting-point cost model (Figure 6).
func (c *Conv2D) MACs(in []int) int64 {
	g := c.geom(in)
	return int64(g.OutH()) * int64(g.OutW()) * int64(c.OutC) * int64(c.InC*c.KH*c.KW)
}
