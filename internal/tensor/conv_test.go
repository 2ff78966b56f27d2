package tensor

import (
	"testing"
)

func TestConvGeomOutputDims(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 32, InW: 32, KH: 5, KW: 5, Stride: 1, Pad: 2}
	if g.OutH() != 32 || g.OutW() != 32 {
		t.Fatalf("same-pad geometry: %dx%d, want 32x32", g.OutH(), g.OutW())
	}
	g2 := ConvGeom{InC: 1, InH: 28, InW: 28, KH: 5, KW: 5, Stride: 1, Pad: 0}
	if g2.OutH() != 24 || g2.OutW() != 24 {
		t.Fatalf("valid geometry: %dx%d, want 24x24", g2.OutH(), g2.OutW())
	}
	g3 := ConvGeom{InC: 1, InH: 8, InW: 8, KH: 2, KW: 2, Stride: 2, Pad: 0}
	if g3.OutH() != 4 || g3.OutW() != 4 {
		t.Fatalf("strided geometry: %dx%d, want 4x4", g3.OutH(), g3.OutW())
	}
}

func TestConvGeomValidate(t *testing.T) {
	bad := []ConvGeom{
		{InC: 0, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1},
		{InC: 1, InH: 4, InW: 4, KH: 0, KW: 3, Stride: 1},
		{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 0},
		{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: -1},
		{InC: 1, InH: 2, InW: 2, KH: 5, KW: 5, Stride: 1, Pad: 0},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid geometry %+v", i, g)
		}
	}
	good := ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate rejected valid geometry: %v", err)
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no pad: im2col is the identity (as a column).
	img := From([]float64{1, 2, 3, 4}, 1, 2, 2)
	g := ConvGeom{InC: 1, InH: 2, InW: 2, KH: 1, KW: 1, Stride: 1}
	cols := im2col(img, g)
	if !ShapeEq(cols.Shape(), []int{4, 1}) {
		t.Fatalf("cols shape = %v", cols.Shape())
	}
	if !Equal(cols.Flatten(), img.Flatten()) {
		t.Fatalf("1x1 im2col should be identity, got %v", cols)
	}
}

func TestIm2ColKnownValues(t *testing.T) {
	// 3x3 image, 2x2 kernel, stride 1 → 2x2 output, each row a window.
	img := From([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	g := ConvGeom{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, Stride: 1}
	cols := im2col(img, g)
	want := From([]float64{
		1, 2, 4, 5,
		2, 3, 5, 6,
		4, 5, 7, 8,
		5, 6, 8, 9,
	}, 4, 4)
	if !Equal(cols, want) {
		t.Fatalf("im2col = %v, want %v", cols, want)
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	img := From([]float64{5}, 1, 1, 1)
	g := ConvGeom{InC: 1, InH: 1, InW: 1, KH: 3, KW: 3, Stride: 1, Pad: 1}
	cols := im2col(img, g)
	if !ShapeEq(cols.Shape(), []int{1, 9}) {
		t.Fatalf("cols shape = %v", cols.Shape())
	}
	// Only the center of the window overlaps the image.
	want := From([]float64{0, 0, 0, 0, 5, 0, 0, 0, 0}, 1, 9)
	if !Equal(cols, want) {
		t.Fatalf("padded im2col = %v, want %v", cols, want)
	}
}

func TestIm2ColMultiChannel(t *testing.T) {
	img := From([]float64{
		1, 2, 3, 4, // channel 0
		10, 20, 30, 40, // channel 1
	}, 2, 2, 2)
	g := ConvGeom{InC: 2, InH: 2, InW: 2, KH: 2, KW: 2, Stride: 1}
	cols := im2col(img, g)
	want := From([]float64{1, 2, 3, 4, 10, 20, 30, 40}, 1, 8)
	if !Equal(cols, want) {
		t.Fatalf("multichannel im2col = %v, want %v", cols, want)
	}
}

// The backward-data kernel is col2im(G·W) (direct.go), and col2im is the
// exact adjoint of im2col, so ConvBackward is the adjoint of a convolution
// without bias: <Conv(x), g> == <x, ConvBackward(g)> for all x, g.
func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	rng := NewRNG(11)
	geoms := []ConvGeom{
		{InC: 1, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 0},
		{InC: 2, InH: 6, InW: 7, KH: 3, KW: 2, Stride: 2, Pad: 1},
		{InC: 3, InH: 8, InW: 8, KH: 5, KW: 5, Stride: 1, Pad: 2},
		{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, Stride: 2, Pad: 0},
	}
	const outC = 3
	for gi, g := range geoms {
		w := rng.FillNormal(New(outC, g.InC*g.KH*g.KW), 0, 1)
		x := rng.FillNormal(New(g.InC, g.InH, g.InW), 0, 1)
		gy := rng.FillNormal(New(outC, g.OutH()*g.OutW()), 0, 1)
		taps, back := g.Taps(), g.BackTaps(outC)
		y, dx := New(gy.Shape()...), New(x.Shape()...)
		Pack(w, Epilogue[float64]{Bias: make([]float64, outC)}).Conv(y.Data(), x.Data(), make([]float64, taps.Scratch), taps)
		PackTransposed[float64](w).ConvBackward(dx.Data(), gy.Data(), make([]float64, back.Scratch), back)
		lhs, rhs := Dot(y, gy), Dot(x, dx)
		if diff := lhs - rhs; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("geometry %d: adjoint identity violated: %v vs %v", gi, lhs, rhs)
		}
	}
}

func TestCol2ImAccumulatesOverlaps(t *testing.T) {
	// One all-ones 2x2 filter and an all-ones gradient over overlapping
	// stride-1 windows on 3x3: every column gradient is 1, and col2im adds
	// each pixel's — the center pixel belongs to all 4 windows.
	g := ConvGeom{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, Stride: 1}
	back := g.BackTaps(1)
	img := New(1, 3, 3)
	PackTransposed[float64](New(1, 4).Fill(1)).ConvBackward(img.Data(), New(4).Fill(1).Data(), make([]float64, back.Scratch), back)
	want := From([]float64{
		1, 2, 1,
		2, 4, 2,
		1, 2, 1,
	}, 1, 3, 3)
	if !Equal(img, want) {
		t.Fatalf("col2im overlap accumulation = %v, want %v", img, want)
	}
}

func TestIm2ColWrongSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	im2col(New(1, 2, 2), ConvGeom{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, Stride: 1})
}

// im2col lowers img into a fresh column matrix through Im2ColInto.
func im2col(img *Tensor, g ConvGeom) *Tensor {
	cols := New(g.OutH()*g.OutW(), g.InC*g.KH*g.KW)
	Im2ColInto(cols, img, g)
	return cols
}

func TestIm2ColIntoMatchesIm2Col(t *testing.T) {
	rng := NewRNG(3)
	img := rng.FillNormal(New(2, 5, 5), 0, 1)
	g := ConvGeom{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 1}
	want := im2col(img, g)
	dst := New(g.OutH()*g.OutW(), 2*3*3)
	dst.Fill(99) // dirty buffer: Im2ColInto must overwrite everything
	Im2ColInto(dst, img, g)
	if !AllClose(dst, want, 0) {
		t.Fatal("Im2ColInto into a dirty buffer diverges from a fresh one")
	}
}
