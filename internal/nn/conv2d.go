package nn

import (
	"fmt"

	"shredder/internal/tensor"
)

// Conv2D is a 2-D convolution layer over [N, C, H, W] inputs. Weights have
// shape [OutC, InC*KH*KW], a filter's taps in im2col's order, and biases
// [OutC].
type Conv2D struct {
	name        string
	InC, OutC   int
	KH, KW      int
	Stride, Pad int
	W, B        *Param
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

// MACs returns the multiply-accumulate count of one forward pass over a
// single sample with the given per-sample input shape — the computation
// term of the paper's cutting-point cost model (Figure 6).
func (c *Conv2D) MACs(in []int) int64 {
	g := c.geom(in)
	return int64(g.OutH()) * int64(g.OutW()) * int64(c.OutC) * int64(c.InC*c.KH*c.KW)
}
