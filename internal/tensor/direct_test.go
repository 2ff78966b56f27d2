package tensor

import (
	"fmt"
	"math"
	"testing"
)

// underEachLeaf runs f under the leaf the process chose and, where that is a
// vector leaf, again under the Go leaf. It must not run beside a test that
// computes: the switch is a plain variable.
func underEachLeaf(t *testing.T, f func(t *testing.T, leaf string)) {
	t.Helper()
	if !vectorLeaf {
		t.Log("no vector leaf on this machine: the Go leaf alone runs")
		f(t, "go")
		return
	}
	f(t, "vector")
	vectorLeaf = false
	defer func() { vectorLeaf = true }()
	f(t, "go")
}

// sameBits reports whether a and b are the same value bit for bit, any two
// NaNs counting as the same: which payload survives NaN·NaN or NaN+NaN
// depends on the operand order the compiler happened to pick.
func sameBits[F Float](a, b F) bool {
	if a != a || b != b {
		return a != a && b != b
	}
	return a == b && math.Signbit(float64(a)) == math.Signbit(float64(b))
}

// testEpilogue draws an epilogue for n outputs: always a bias, the ReLU by
// the low bit of variant.
func testEpilogue[F Float](rng *RNG, n, variant int) Epilogue[F] {
	bias := make([]F, n)
	for i := range bias {
		bias[i] = F(rng.Normal(0, 1))
	}
	return Epilogue[F]{Bias: bias, ReLU: variant&1 != 0}
}

// referenceConv is what the compiled plan computed before the direct kernel:
// im2col, the legacy a·bᵀ kernel, and the epilogue over the [P, n] product,
// stored [n, P].
func referenceConv[F Float](x []F, w *Tensor, ep Epilogue[F], g ConvGeom) []F {
	n, k := w.shape[0], w.shape[1]
	positions := g.OutH() * g.OutW()
	cols, prod := make([]F, positions*k), make([]F, positions*n)
	im2colKernel(cols, x, g)
	matmulT2Kernel(prod, cols, ToDense[F](w).Data(), positions, k, n)
	y := make([]F, n*positions)
	for pos := 0; pos < positions; pos++ {
		for j := 0; j < n; j++ {
			z := prod[pos*n+j] + ep.Bias[j]
			if ep.ReLU && !(z > 0) {
				z = 0
			}
			y[j*positions+pos] = z
		}
	}
	return y
}

// convCase is one geometry of the sweep with its weights and input.
type convCase struct {
	g    ConvGeom
	outC int
	w, x *Tensor
}

func (c convCase) String() string { return fmt.Sprintf("%+v→%d", c.g, c.outC) }

// convSweep calls f on every geometry of stride 1–2 × pad 0–2 × kernel 1–5 ×
// OutW {1,2,3,5,7,8,24} × InC {1,3,16} × OutC {1,6,10,16,17,120} that has an
// input, with 1–3 output rows and, under stride 2, input rows and columns the
// last window does not reach. ragged keeps only the cases whose rows do not
// fill the leaf, whose last panel is partial, or whose stride is 2.
func convSweep(ragged bool, f func(c convCase, variant int)) {
	rng := NewRNG(20)
	variant := 0
	for stride := 1; stride <= 2; stride++ {
		for pad := 0; pad <= 2; pad++ {
			for k := 1; k <= 5; k++ {
				for _, outW := range []int{1, 2, 3, 5, 7, 8, 24} {
					for _, inC := range []int{1, 3, 16} {
						for _, outC := range []int{1, 6, 10, 16, 17, 120} {
							variant++
							outH := 1 + variant%3
							slack := variant % stride
							inW, inH := (outW-1)*stride+k-2*pad+slack, (outH-1)*stride+k-2*pad+slack
							if inW < 1 || inH < 1 {
								continue
							}
							if ragged && outW%leafRows == 0 && outC%PanelWidth == 0 && stride == 1 {
								continue
							}
							g := ConvGeom{InC: inC, InH: inH, InW: inW, KH: k, KW: k, Stride: stride, Pad: pad}
							if g.Validate() != nil || g.OutW() != outW || g.OutH() != outH {
								panic(fmt.Sprintf("sweep built %+v for a %dx%d output", g, outH, outW))
							}
							f(convCase{g: g, outC: outC,
								w: rng.FillNormal(New(outC, inC*k*k), 0, 1),
								x: rng.FillNormal(New(inC, inH, inW), 0, 1)}, variant)
						}
					}
				}
			}
		}
	}
}

func checkConv[F Float](t *testing.T, leaf string, c convCase, variant int) {
	t.Helper()
	ep := testEpilogue[F](NewRNG(int64(variant)), c.outC, variant)
	x := ToDense[F](c.x).Data()
	want := referenceConv(x, c.w, ep, c.g)
	taps := c.g.Taps()
	got := make([]F, len(want))
	scratch := make([]F, taps.Scratch)
	for i := range scratch {
		scratch[i] = F(math.NaN()) // the kernel owes nothing to what the scratch held
	}
	Pack(c.w, ep).Conv(got, x, scratch, taps)
	for i, v := range got {
		if !sameBits(v, want[i]) {
			t.Fatalf("%s leaf, %v, %T: output %d is %v, im2col + matmul give %v", leaf, c, v, i, v, want[i])
		}
	}
}

// TestDirectConvEqualsIm2ColMatMul: over the whole sweep, at both dtypes and
// under both leaves, the direct kernel's output is im2col + matmulT2Kernel +
// epilogue bit for bit.
func TestDirectConvEqualsIm2ColMatMul(t *testing.T) {
	underEachLeaf(t, func(t *testing.T, leaf string) {
		cases := 0
		convSweep(false, func(c convCase, variant int) {
			checkConv[float64](t, leaf, c, variant)
			checkConv[float32](t, leaf, c, variant)
			cases++
		})
		t.Logf("%s leaf: %d geometries", leaf, cases)
	})
}

func checkLinear[F Float](t *testing.T, leaf string, n, k, variant int) {
	t.Helper()
	rng := NewRNG(int64(1000*n + k))
	w := rng.FillNormal(New(n, k), 0, 1)
	x := ToDense[F](rng.FillNormal(New(k), 0, 1)).Data()
	ep := testEpilogue[F](rng, n, variant)
	// A linear layer is the 1×1 convolution of a k-channel pixel.
	want := referenceConv(x, w, ep, ConvGeom{InC: k, InH: 1, InW: 1, KH: 1, KW: 1, Stride: 1})
	got := make([]F, n)
	Pack(w, ep).Linear(got, x, make([]F, LinearScratch))
	for i, v := range got {
		if !sameBits(v, want[i]) {
			t.Fatalf("%s leaf, %d→%d, %T: output %d is %v, matmul gives %v", leaf, k, n, v, i, v, want[i])
		}
	}
}

// TestDirectLinearEqualsMatMul is the same property for the one-position
// case, over widths that leave the last leaf call one to four panels and the
// last panel one to eight outputs.
func TestDirectLinearEqualsMatMul(t *testing.T) {
	underEachLeaf(t, func(t *testing.T, leaf string) {
		variant := 0
		for _, n := range []int{1, 6, 8, 10, 16, 17, 24, 31, 32, 33, 48, 84, 120} {
			for _, k := range []int{1, 7, 64, 400} {
				variant++
				checkLinear[float64](t, leaf, n, k, variant)
				checkLinear[float32](t, leaf, n, k, variant)
			}
		}
	})
}

// referenceConvBackward is the frozen tape's Conv2D.BackwardT for one sample:
// the gradient transposed to G [P, OutC], dcols = G·W through matmulRows —
// which skips a zero of G — and col2im into a zeroed image.
func referenceConvBackward[F Float](gy []F, w *Tensor, g ConvGeom) []F {
	n, k := w.shape[0], w.shape[1]
	positions := g.OutH() * g.OutW()
	G, dcols := make([]F, positions*n), make([]F, positions*k)
	for oc := 0; oc < n; oc++ {
		for pos := 0; pos < positions; pos++ {
			G[pos*n+oc] = gy[oc*positions+pos]
		}
	}
	matmulRows(dcols, G, ToDense[F](w).Data(), n, k, 0, positions)
	// col2im as the tape has always run it: positions ascending, every tap
	// bounds-checked on its own.
	dx := make([]F, g.InC*g.InH*g.InW)
	for pos := 0; pos < positions; pos++ {
		iy0, ix0 := pos/g.OutW()*g.Stride-g.Pad, pos%g.OutW()*g.Stride-g.Pad
		for t := 0; t < k; t++ {
			c, ky, kx := t/(g.KH*g.KW), t/g.KW%g.KH, t%g.KW
			if iy, ix := iy0+ky, ix0+kx; iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
				dx[(c*g.InH+iy)*g.InW+ix] += dcols[pos*k+t]
			}
		}
	}
	return dx
}

// drawGradient draws an output gradient a third of which a ReLU or a dropout
// gated: +0 and, as a mask's product with a negative gradient leaves it, −0.
func drawGradient[F Float](rng *RNG, n int) []F {
	gy := make([]F, n)
	for i := range gy {
		switch rng.Intn(6) {
		case 0:
			gy[i] = 0
		case 1:
			gy[i] = F(math.Copysign(0, -1))
		default:
			gy[i] = F(rng.Normal(0, 1))
		}
	}
	return gy
}

func checkConvBackward[F Float](t *testing.T, leaf string, c convCase, variant int) {
	t.Helper()
	gy := drawGradient[F](NewRNG(int64(variant)), c.outC*c.g.OutH()*c.g.OutW())
	want := referenceConvBackward(gy, c.w, c.g)
	taps := c.g.BackTaps(c.outC)
	got, scratch := make([]F, len(want)), make([]F, taps.Scratch)
	for i := range scratch {
		scratch[i] = F(math.NaN())
	}
	for i := range got {
		got[i] = F(math.NaN())
	}
	PackTransposed[F](c.w).ConvBackward(got, gy, scratch, taps)
	for i, v := range got {
		if !sameBits(v, want[i]) {
			t.Fatalf("%s leaf, %v, %T: input gradient %d is %v, matmul + col2im give %v", leaf, c, v, i, v, want[i])
		}
	}
}

// TestConvBackwardEqualsMatMulCol2Im: over the whole sweep, at both dtypes
// and under both leaves, the backward-data kernel's input gradient is the
// frozen tape's G·W + col2im bit for bit, gated gradients included.
func TestConvBackwardEqualsMatMulCol2Im(t *testing.T) {
	underEachLeaf(t, func(t *testing.T, leaf string) {
		convSweep(false, func(c convCase, variant int) {
			checkConvBackward[float64](t, leaf, c, variant)
			checkConvBackward[float32](t, leaf, c, variant)
		})
	})
}

// TestLinearBackwardEqualsMatMul is the same property for a linear layer:
// Linear over the transposed pack is one row of matmulRows' G·W.
func TestLinearBackwardEqualsMatMul(t *testing.T) {
	underEachLeaf(t, func(t *testing.T, leaf string) {
		for _, n := range []int{1, 6, 10, 33, 120} {
			for _, k := range []int{1, 7, 64, 400} {
				rng := NewRNG(int64(1000*n + k))
				w := rng.FillNormal(New(n, k), 0, 1)
				gy := drawGradient[float64](rng, n)
				want, got := make([]float64, k), make([]float64, k)
				matmulRows(want, gy, w.Data(), n, k, 0, 1)
				PackTransposed[float64](w).Linear(got, gy, make([]float64, LinearScratch))
				for i, v := range got {
					if !sameBits(v, want[i]) {
						t.Fatalf("%s leaf, %d←%d: input gradient %d is %v, matmul gives %v", leaf, k, n, i, v, want[i])
					}
				}
			}
		}
	})
}

// specials are the inputs a rounding or ordering shortcut would show on.
func specials[F Float]() []F {
	var tiny F = 1
	for tiny/2 > 0 {
		tiny /= 2 // the smallest denormal
	}
	negZero := F(math.Copysign(0, -1))
	inf := F(math.Inf(1))
	return []F{F(math.NaN()), inf, -inf, negZero, 0, tiny, -tiny, tiny * 1000, 1 / tiny / 1e30}
}

func checkLeaves[F Float](t *testing.T, vec leafFunc[F]) {
	rng := NewRNG(33)
	sp := specials[F]()
	fill := func(n int, special bool) []F {
		v := make([]F, n)
		for i := range v {
			v[i] = F(rng.Normal(0, 1))
			if special && rng.Intn(4) == 0 {
				v[i] = sp[rng.Intn(len(sp))]
			}
		}
		return v
	}
	for _, special := range []bool{false, true} {
		for _, k := range []int{1, 2, 9, 144} {
			for _, xs := range []int{0, 1, 2} {
				for _, ws := range []int{0, k * PanelWidth} {
					for n := 1; n <= leafRows; n++ {
						off := make([]int32, k)
						for p := range off {
							off[p] = int32(rng.Intn(50))
						}
						x := fill(50+(leafRows-1)*xs, special)
						w := fill(k*PanelWidth+(leafRows-1)*ws, special)
						var want, got [accLen]F
						leafGo(&want, n, x, xs, off, w, ws)
						vec(&got, n, x, xs, off, w, ws)
						for i := 0; i < n*PanelWidth; i++ {
							if !sameBits(got[i], want[i]) {
								t.Fatalf("%T special=%v k=%d xs=%d ws=%d n=%d: accumulator %d is %v, the Go leaf's %v",
									got[i], special, k, xs, ws, n, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestVectorLeafEqualsGoLeaf compares the raw accumulators of the two
// leaves, rows one to four, shared and per-row weights, on
// unit-normal inputs and on inputs a quarter of which are NaN, ±Inf, −0,
// denormal or huge.
func TestVectorLeafEqualsGoLeaf(t *testing.T) {
	if !vectorLeaf {
		t.Skip("no vector leaf on this machine")
	}
	checkLeaves(t, vecLeaves.f64)
	checkLeaves(t, vecLeaves.f32)
}

// TestPadIntoWritesEveryElement: the zero-bordered copy owes nothing to the
// scratch's previous content.
func TestPadIntoWritesEveryElement(t *testing.T) {
	g := ConvGeom{InC: 2, InH: 3, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 2}
	src := NewRNG(4).FillNormal(New(2, 3, 4), 0, 1)
	dst := make([]float64, 2*7*8)
	for i := range dst {
		dst[i] = math.NaN()
	}
	padInto(dst, src.Data(), g)
	for c := 0; c < 2; c++ {
		for y := 0; y < 7; y++ {
			for x := 0; x < 8; x++ {
				want := 0.0
				if y >= 2 && y < 5 && x >= 2 && x < 6 {
					want = src.At(c, y-2, x-2)
				}
				if got := dst[(c*7+y)*8+x]; got != want {
					t.Fatalf("padded[%d,%d,%d] = %v, want %v", c, y, x, got, want)
				}
			}
		}
	}
}

// TestDirectKernelDoesNotAllocate: a call builds nothing — no closure, no
// boxed leaf — under either leaf.
func TestDirectKernelDoesNotAllocate(t *testing.T) {
	rng := NewRNG(5)
	g := ConvGeom{InC: 3, InH: 9, InW: 9, KH: 3, KW: 3, Stride: 1, Pad: 1}
	taps := g.Taps()
	w := rng.FillNormal(New(10, 27), 0, 1)
	x := rng.FillNormal(New(3, 9, 9), 0, 1)
	p64 := Pack(w, testEpilogue[float64](rng, 10, 3))
	p32 := Pack(w, testEpilogue[float32](rng, 10, 3))
	x32 := ToDense[float32](x).Data()
	y64, s64 := make([]float64, 10*81), make([]float64, taps.Scratch)
	y32, s32 := make([]float32, 10*81), make([]float32, taps.Scratch)
	back := g.BackTaps(10)
	t64, dx64, b64 := PackTransposed[float64](w), make([]float64, 3*81), make([]float64, back.Scratch)
	underEachLeaf(t, func(t *testing.T, leaf string) {
		if n := testing.AllocsPerRun(20, func() {
			p64.Conv(y64, x.Data(), s64, taps)
			p32.Conv(y32, x32, s32, taps)
			p64.Linear(y64[:10], x.Data()[:27], s64)
			p32.Linear(y32[:10], x32[:27], s32)
			t64.ConvBackward(dx64, y64, b64, back)
		}); n != 0 {
			t.Errorf("%s leaf: the direct kernel allocates %v times per call", leaf, n)
		}
	})
}

// zooConvs are nine convolution geometries of the model zoo, smallest plane
// to largest: LeNet's three, the SVHN net's first two and its two deepest
// 3×3s, AlexNet's strided first and its heaviest.
var zooConvs = []struct {
	name string
	g    ConvGeom
	outC int
}{
	{"lenet.conv0", ConvGeom{InC: 1, InH: 28, InW: 28, KH: 5, KW: 5, Stride: 1}, 6},
	{"lenet.conv1", ConvGeom{InC: 6, InH: 12, InW: 12, KH: 5, KW: 5, Stride: 1}, 16},
	{"lenet.conv2", ConvGeom{InC: 16, InH: 4, InW: 4, KH: 4, KW: 4, Stride: 1}, 120},
	{"svhn.conv0", ConvGeom{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}, 16},
	{"svhn.conv1", ConvGeom{InC: 16, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}, 16},
	{"svhn.conv3", ConvGeom{InC: 24, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}, 24},
	{"svhn.conv5", ConvGeom{InC: 32, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, 32},
	{"alexnet.conv0", ConvGeom{InC: 3, InH: 64, InW: 64, KH: 5, KW: 5, Stride: 2, Pad: 2}, 16},
	{"alexnet.conv1", ConvGeom{InC: 16, InH: 16, InW: 16, KH: 5, KW: 5, Stride: 1, Pad: 2}, 32},
}

func benchConv[F Float](b *testing.B, g ConvGeom, outC int) {
	rng := NewRNG(6)
	w := rng.FillNormal(New(outC, g.InC*g.KH*g.KW), 0, 1)
	x := ToDense[F](rng.FillNormal(New(g.InC, g.InH, g.InW), 0, 1)).Data()
	p := Pack(w, Epilogue[F]{Bias: make([]F, outC), ReLU: true})
	taps := g.Taps()
	y, scratch := make([]F, outC*g.OutH()*g.OutW()), make([]F, taps.Scratch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Conv(y, x, scratch, taps)
	}
	b.ReportMetric(2*float64(outC*g.OutH()*g.OutW()*g.InC*g.KH*g.KW)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkConvLeaf times the whole direct convolution — padding copy, leaf
// calls, epilogue — on zooConvs at both dtypes under each leaf: the table of
// DESIGN §5f.
func BenchmarkConvLeaf(b *testing.B) {
	leafNames := []string{"go"}
	if vectorLeaf {
		leafNames = append(leafNames, "vector")
		defer func() { vectorLeaf = true }()
	}
	for _, c := range zooConvs {
		for _, leaf := range leafNames {
			vectorLeaf = leaf == "vector"
			b.Run(c.name+"/f64/"+leaf, func(b *testing.B) { benchConv[float64](b, c.g, c.outC) })
			b.Run(c.name+"/f32/"+leaf, func(b *testing.B) { benchConv[float32](b, c.g, c.outC) })
		}
	}
}

// BenchmarkConvBackwardLeaf times the backward-data kernel on zooConvs under
// each leaf beside the frozen tape's matmul + col2im: the table of DESIGN §5m.
func BenchmarkConvBackwardLeaf(b *testing.B) {
	leafNames := []string{"tape", "go"}
	if vectorLeaf {
		leafNames = append(leafNames, "vector")
		defer func() { vectorLeaf = true }()
	}
	for _, c := range zooConvs {
		rng := NewRNG(7)
		w := rng.FillNormal(New(c.outC, c.g.InC*c.g.KH*c.g.KW), 0, 1)
		gy := drawGradient[float64](rng, c.outC*c.g.OutH()*c.g.OutW())
		for _, leaf := range leafNames {
			vectorLeaf = leaf == "vector"
			b.Run(c.name+"/"+leaf, func(b *testing.B) {
				if leaf == "tape" {
					for i := 0; i < b.N; i++ {
						referenceConvBackward(gy, w, c.g)
					}
					return
				}
				p, taps := PackTransposed[float64](w), c.g.BackTaps(c.outC)
				dx, scratch := make([]float64, c.g.InC*c.g.InH*c.g.InW), make([]float64, taps.Scratch)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.ConvBackward(dx, gy, scratch, taps)
				}
			})
		}
	}
}
