package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling window:
// input channels/height/width, kernel size, stride and zero padding.
type ConvGeom struct {
	InC, InH, InW int
	KH, KW        int
	Stride        int
	Pad           int
}

// OutH returns the output height of the window sweep.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.KH)/g.Stride + 1 }

// OutW returns the output width of the window sweep.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.KW)/g.Stride + 1 }

// Validate reports an error if the geometry does not produce a positive
// output plane.
func (g ConvGeom) Validate() error {
	if g.InC <= 0 || g.InH <= 0 || g.InW <= 0 {
		return fmt.Errorf("tensor: conv geometry has non-positive input dims %+v", g)
	}
	if g.KH <= 0 || g.KW <= 0 || g.Stride <= 0 || g.Pad < 0 {
		return fmt.Errorf("tensor: conv geometry has invalid kernel/stride/pad %+v", g)
	}
	if g.OutH() <= 0 || g.OutW() <= 0 {
		return fmt.Errorf("tensor: conv geometry %+v yields empty output %dx%d", g, g.OutH(), g.OutW())
	}
	return nil
}

// Im2ColInto lowers a single image of shape [C,H,W] (flat, row-major) into a
// column matrix of shape [OutH*OutW, C*KH*KW] where each row is the unrolled
// receptive field of one output position: convolution is then cols · Wᵀ.
// Every element of cols is overwritten, so a buffer of any content is a
// valid destination.
func Im2ColInto(cols, img *Tensor, g ConvGeom) {
	if img.Len() != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Col input has %d elems, geometry wants %d", img.Len(), g.InC*g.InH*g.InW))
	}
	outH, outW := g.OutH(), g.OutW()
	if cols.Len() != outH*outW*g.InC*g.KH*g.KW {
		panic(fmt.Sprintf("tensor: Im2ColInto destination has %d elems, geometry wants %d",
			cols.Len(), outH*outW*g.InC*g.KH*g.KW))
	}
	im2colKernel(cols.data, img.data, g)
}
