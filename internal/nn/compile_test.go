package nn

import (
	"math"
	"strings"
	"testing"

	"shredder/internal/tensor"
)

func TestParseDtype(t *testing.T) {
	cases := []struct {
		in   string
		want Dtype
		ok   bool
	}{
		{"float64", Float64, true},
		{"f64", Float64, true},
		{"FLOAT32", Float32, true},
		{" f32 ", Float32, true},
		{"double", Float64, true},
		{"bf16", Float64, false},
		{"", Float64, false},
	}
	for _, c := range cases {
		got, err := ParseDtype(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseDtype(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseDtype(%q) succeeded, want error", c.in)
		}
	}
	if Float32.Short() != "f32" || Float64.Short() != "f64" {
		t.Error("Dtype.Short misnamed")
	}
	if Float32.Size() != 4 || Float64.Size() != 8 {
		t.Error("Dtype.Size wrong")
	}
}

func TestLabelMatches(t *testing.T) {
	cases := []struct {
		label, layer string
		want         bool
	}{
		{"conv2", "conv2", true},
		{"conv2[f32]", "conv2", true},
		{"conv2+relu2[f32]", "conv2", true},
		{"conv2+relu2[f32]", "relu2", true},
		{"conv2+bn2+relu2[f64]", "bn2", true},
		{"conv2+relu2[f32]", "conv", false},
		{"conv20[f32]", "conv2", false},
		{"fc1", "fc2", false},
	}
	for _, c := range cases {
		if got := LabelMatches(c.label, c.layer); got != c.want {
			t.Errorf("LabelMatches(%q, %q) = %v, want %v", c.label, c.layer, got, c.want)
		}
	}
}

// convBNNet builds conv→bn→relu→pool→flatten→fc with the given conv
// geometry, and populates the BN running statistics with non-trivial values
// so folding has something real to fold.
func convBNNet(t *testing.T, inC, outC, k, stride, pad int, rng *tensor.RNG) *Sequential {
	t.Helper()
	conv := NewConv2D("conv0", inC, outC, k, k, stride, pad, rng)
	bn := NewBatchNorm2D("bn0", outC)
	for c := 0; c < outC; c++ {
		bn.runningMean[c] = rng.Normal(0, 0.3)
		bn.runningVar[c] = 0.5 + rng.Float64()
		bn.Gamma.Value.Data()[c] = 0.5 + rng.Float64()
		bn.Beta.Value.Data()[c] = rng.Normal(0, 0.1)
	}
	return NewSequential("convbn",
		conv, bn, NewReLU("relu0"), NewFlatten("flat"),
	)
}

// TestFoldedConvBNBitwiseFloat64 is the BN-folding property test: for a
// sweep of stride/pad/channel combinations, the folded+fused Float64 plan
// must equal the unfused Conv→BN→ReLU plan bitwise — the fold and fusion
// transformations are exact, they only reorganize where the same arithmetic
// happens — and both must equal the tape path's nil-tape forward, the
// oracle, bit for bit. Under both leaves of the direct kernel.
func TestFoldedConvBNBitwiseFloat64(t *testing.T) {
	UnderEachLeaf(t, testFoldedConvBNBitwiseFloat64)
}

func testFoldedConvBNBitwiseFloat64(t *testing.T) {
	combos := []struct{ inC, outC, k, stride, pad int }{
		{1, 4, 3, 1, 0},
		{1, 4, 3, 1, 1},
		{3, 8, 3, 2, 1},
		{3, 5, 5, 1, 2},
		{2, 7, 4, 2, 0},
		{4, 3, 1, 1, 0},
	}
	for _, cb := range combos {
		rng := tensor.NewRNG(int64(100*cb.inC + 10*cb.outC + cb.k + cb.stride + cb.pad))
		net := convBNNet(t, cb.inC, cb.outC, cb.k, cb.stride, cb.pad, rng)
		x := rng.FillNormal(tensor.New(3, cb.inC, 11, 11), 0, 1)

		cn, err := Compile(net, Float64)
		if err != nil {
			t.Fatalf("%+v: compile: %v", cb, err)
		}
		if len(cn.Labels()) != 2 || cn.Labels()[0] != "conv0+bn0+relu0[f64]" {
			t.Fatalf("%+v: unexpected plan %v", cb, cn.Labels())
		}
		unfused, err := Compile(net, Float64, NoFusion())
		if err != nil {
			t.Fatalf("%+v: compile unfused: %v", cb, err)
		}
		got := cn.Infer(x)
		want := unfused.Infer(x)
		if !got.SameShape(want) {
			t.Fatalf("%+v: shape %v want %v", cb, got.Shape(), want.Shape())
		}
		for i, v := range got.Data() {
			if v != want.Data()[i] {
				t.Fatalf("%+v: folded f64 plan differs from unfused at %d: %v vs %v",
					cb, i, v, want.Data()[i])
			}
		}
		if oracle := net.ForwardT(nil, x, false); !tensor.BitEqual(got, oracle) {
			t.Fatalf("%+v: f64 plan differs from the nil-tape forward pass", cb)
		}
	}
}

// TestFoldedConvBNFloat32Epsilon checks the same fold at Float32 stays
// within the documented epsilon of the float64 reference across the combo
// sweep.
func TestFoldedConvBNFloat32Epsilon(t *testing.T) {
	combos := []struct{ inC, outC, k, stride, pad int }{
		{1, 4, 3, 1, 1},
		{3, 8, 3, 2, 1},
		{2, 7, 4, 2, 0},
	}
	for _, cb := range combos {
		rng := tensor.NewRNG(int64(7*cb.inC + 3*cb.outC + cb.k))
		net := convBNNet(t, cb.inC, cb.outC, cb.k, cb.stride, cb.pad, rng)
		x := rng.FillNormal(tensor.New(3, cb.inC, 11, 11), 0, 1)

		want := net.ForwardT(nil, x, false)
		cn, err := Compile(net, Float32)
		if err != nil {
			t.Fatalf("%+v: compile: %v", cb, err)
		}
		got := cn.Infer(x)
		maxDiff := 0.0
		for i, v := range got.Data() {
			if d := math.Abs(v - want.Data()[i]); d > maxDiff {
				maxDiff = d
			}
		}
		if maxDiff > 1e-4 {
			t.Fatalf("%+v: float32 fold deviates by %g", cb, maxDiff)
		}
	}
}

// TestNoFusionPlanMatchesFused: disabling fusion changes the step structure
// but not the Float64 result (still bitwise — the standalone BN step uses
// the same expression as the fold epilogue).
func TestNoFusionPlanMatchesFused(t *testing.T) {
	UnderEachLeaf(t, testNoFusionPlanMatchesFused)
}

func testNoFusionPlanMatchesFused(t *testing.T) {
	rng := tensor.NewRNG(5)
	net := convBNNet(t, 3, 6, 3, 1, 1, rng)
	x := rng.FillNormal(tensor.New(2, 3, 9, 9), 0, 1)

	fused, err := Compile(net, Float64)
	if err != nil {
		t.Fatal(err)
	}
	unfused, err := Compile(net, Float64, NoFusion())
	if err != nil {
		t.Fatal(err)
	}
	if len(unfused.Labels()) <= len(fused.Labels()) {
		t.Fatalf("NoFusion did not expand the plan: %v vs %v", unfused.Labels(), fused.Labels())
	}
	for _, lbl := range unfused.Labels() {
		if strings.Contains(lbl, "+") {
			t.Fatalf("NoFusion plan contains fused step %q", lbl)
		}
	}
	a, b := fused.Infer(x), unfused.Infer(x)
	for i, v := range a.Data() {
		if v != b.Data()[i] {
			t.Fatalf("fused and unfused f64 plans differ at %d", i)
		}
	}
}

func TestCompileSkipsDropoutAndRejectsUnknown(t *testing.T) {
	rng := tensor.NewRNG(6)
	net := NewSequential("d",
		NewLinear("fc0", 12, 8, rng),
		NewDropout("drop0", 0.5, rng),
		NewReLU("relu0"),
		NewLinear("fc1", 8, 4, rng),
	)
	cn, err := Compile(net, Float64)
	if err != nil {
		t.Fatal(err)
	}
	for _, lbl := range cn.Labels() {
		if strings.Contains(lbl, "drop0") {
			t.Fatalf("dropout appears in plan: %v", cn.Labels())
		}
	}
	x := rng.FillNormal(tensor.New(4, 12), 0, 1)
	want := net.ForwardT(nil, x, false)
	got := cn.Infer(x)
	if !tensor.BitEqual(got, want) {
		t.Fatal("dropout-skipping plan differs from the nil-tape forward pass")
	}

	bad := NewSequential("bad", &unknownLayer{})
	if _, err := Compile(bad, Float64); err == nil {
		t.Fatal("Compile accepted an unknown layer type")
	}
	if _, err := CompileRange(net, 2, 1, Float64); err == nil {
		t.Fatal("CompileRange accepted an inverted range")
	}
}

// unknownLayer is a Layer the compiler has no lowering for.
type unknownLayer struct{ tape Tape }

func (u *unknownLayer) Name() string           { return "mystery" }
func (u *unknownLayer) Params() []*Param       { return nil }
func (u *unknownLayer) OutShape(s []int) []int { return s }
func (u *unknownLayer) ForwardT(tape *Tape, x *tensor.Tensor, train bool) *tensor.Tensor {
	return x
}
func (u *unknownLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { return x }
func (u *unknownLayer) BackwardT(tape *Tape, g *tensor.Tensor) *tensor.Tensor {
	return g
}
func (u *unknownLayer) Backward(g *tensor.Tensor) *tensor.Tensor { return g }

func TestCompiledInfer32DirectEntry(t *testing.T) {
	rng := tensor.NewRNG(8)
	net := NewSequential("n",
		NewLinear("fc0", 6, 5, rng),
		NewReLU("relu0"),
		NewLinear("fc1", 5, 3, rng),
	)
	cn, err := Compile(net, Float32)
	if err != nil {
		t.Fatal(err)
	}
	x := rng.FillNormal(tensor.New(2, 6), 0, 1)
	viaF64 := cn.Infer(x)
	via32 := cn.Infer32(tensor.ToDense[float32](x))
	for i, v := range via32.Data() {
		if v != viaF64.Data()[i] {
			t.Fatalf("Infer32 and Infer disagree at %d: %v vs %v", i, v, viaF64.Data()[i])
		}
	}
	// Float64 plans widen the input instead of failing.
	cn64, err := Compile(net, Float64)
	if err != nil {
		t.Fatal(err)
	}
	if out := cn64.Infer32(tensor.ToDense[float32](x)); out.Len() != 6 {
		t.Fatalf("f64 Infer32 returned %v", out.Shape())
	}
}

// TestPlanReportsEachStepOncePerCall: under a profiler a plan reports every
// step once per Infer — not once per sample — with the bytes of the whole
// batch's step output, view steps included, and the result is unchanged.
func TestPlanReportsEachStepOncePerCall(t *testing.T) {
	rng := tensor.NewRNG(9)
	net := NewSequential("p",
		NewConv2D("conv0", 1, 2, 3, 3, 1, 1, rng), NewReLU("relu0"),
		NewFlatten("flat"), NewLinear("fc", 2*4*4, 3, rng),
	)
	cn, err := Compile(net, Float32)
	if err != nil {
		t.Fatal(err)
	}
	x := rng.FillNormal(tensor.New(5, 1, 4, 4), 0, 1)
	want := cn.Infer(x)

	rec := &recordingProfiler{}
	net.SetProfiler(rec)
	defer net.SetProfiler(nil)
	if got := cn.Infer(x); !tensor.BitEqual(got, want) {
		t.Fatal("profiled Infer computes something else")
	}
	wantEvents := []profEvent{
		{"conv0+relu0[f32]", false, 5 * 32 * 4}, {"flat[f32]", false, 5 * 32 * 4}, {"fc[f32]", false, 5 * 3 * 4},
	}
	events := rec.take()
	if len(events) != len(wantEvents) {
		t.Fatalf("got %d events, want %d: %+v", len(events), len(wantEvents), events)
	}
	for i, e := range events {
		if e != wantEvents[i] {
			t.Fatalf("event %d = %+v, want %+v", i, e, wantEvents[i])
		}
	}
}

// TestTrainPassReportsEachStepOncePerPass: under a profiler a training pass
// reports every step once per direction, its volume that of the batch, and
// computes what it computes unobserved.
func TestTrainPassReportsEachStepOncePerPass(t *testing.T) {
	rng := tensor.NewRNG(9)
	net := NewSequential("p",
		NewConv2D("conv0", 1, 2, 3, 3, 1, 1, rng), NewReLU("relu0"),
		NewFlatten("flat"), NewDropout("drop", 0.5, rng), NewLinear("fc", 2*4*4, 3, rng),
	)
	cn, err := Compile(net, Float64)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := cn.TrainPlan()
	if err != nil {
		t.Fatal(err)
	}
	x := rng.FillNormal(tensor.New(5, 1, 4, 4), 0, 1)
	grad := rng.FillNormal(tensor.New(5, 3), 0, 1)
	quiet := tp.NewPass(tensor.NewRNG(1))
	wantY := quiet.ForwardInto(nil, x)
	wantDX := quiet.BackwardInto(nil, grad)

	rec := &recordingProfiler{}
	net.SetProfiler(rec)
	defer net.SetProfiler(nil)
	pass := tp.NewPass(tensor.NewRNG(1))
	if y := pass.ForwardInto(nil, x); !tensor.BitEqual(y, wantY) {
		t.Fatal("a profiled forward pass computes something else")
	}
	if dx := pass.BackwardInto(nil, grad); !tensor.BitEqual(dx, wantDX) {
		t.Fatal("a profiled backward pass computes something else")
	}
	wantEvents := []profEvent{
		{"conv0+relu0[f64]", false, 5 * 32 * 8}, {"flat[f64]", false, 5 * 32 * 8}, {"drop[f64]", false, 5 * 32 * 8}, {"fc[f64]", false, 5 * 3 * 8},
		{"conv0+relu0[f64]", true, 5 * 16 * 8}, {"flat[f64]", true, 5 * 32 * 8}, {"drop[f64]", true, 5 * 32 * 8}, {"fc[f64]", true, 5 * 32 * 8},
	}
	events := rec.take()
	if len(events) != len(wantEvents) {
		t.Fatalf("got %d events, want %d: %+v", len(events), len(wantEvents), events)
	}
	for i, e := range events {
		if e != wantEvents[i] {
			t.Fatalf("event %d = %+v, want %+v", i, e, wantEvents[i])
		}
	}
}
