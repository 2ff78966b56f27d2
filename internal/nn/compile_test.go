package nn

import (
	"math"
	"strings"
	"testing"

	"shredder/internal/tensor"
)

// PlanLabels is c's per-step profiler labels in execution order, e.g.
// "conv2+relu2[f32]" for a fused step, and PlanRange its layer range
// [from, to): what the compile tests of this package and of nn_test read.
func PlanLabels(c *CompiledNet) []string {
	if c.p32 != nil {
		return c.p32.labels
	}
	return c.p64.labels
}

func PlanRange(c *CompiledNet) (from, to int) { return c.from, c.to }

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

// convReLUNet builds conv→relu→flatten with the given conv geometry: a plan
// of one fused Conv+ReLU step and a view.
func convReLUNet(inC, outC, k, stride, pad int, rng *tensor.RNG) *Sequential {
	return NewSequential("convrelu",
		NewConv2D("conv0", inC, outC, k, k, stride, pad, rng), NewReLU("relu0"), NewFlatten("flat"),
	)
}

// TestFusedConvReLUBitwiseFloat64: for a sweep of stride/pad/channel
// combinations, the fused Conv+ReLU Float64 plan must equal the tape path's
// nil-tape forward, the oracle, bit for bit — fusion only moves where the
// same arithmetic happens. Under both leaves of the direct kernel.
func TestFusedConvReLUBitwiseFloat64(t *testing.T) {
	UnderEachLeaf(t, testFusedConvReLUBitwiseFloat64)
}

func testFusedConvReLUBitwiseFloat64(t *testing.T) {
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
		net := convReLUNet(cb.inC, cb.outC, cb.k, cb.stride, cb.pad, rng)
		x := rng.FillNormal(tensor.New(3, cb.inC, 11, 11), 0, 1)

		cn, err := Compile(net, Float64)
		if err != nil {
			t.Fatalf("%+v: compile: %v", cb, err)
		}
		if len(PlanLabels(cn)) != 2 || PlanLabels(cn)[0] != "conv0+relu0[f64]" {
			t.Fatalf("%+v: unexpected plan %v", cb, PlanLabels(cn))
		}
		if got, oracle := cn.Infer(x), net.ForwardT(nil, x, false); !tensor.BitEqual(got, oracle) {
			t.Fatalf("%+v: f64 plan differs from the nil-tape forward pass", cb)
		}
	}
}

// TestFusedConvReLUFloat32Epsilon checks the same fused step at Float32 stays
// within the documented epsilon of the float64 oracle across the combo sweep.
func TestFusedConvReLUFloat32Epsilon(t *testing.T) {
	combos := []struct{ inC, outC, k, stride, pad int }{
		{1, 4, 3, 1, 1},
		{3, 8, 3, 2, 1},
		{2, 7, 4, 2, 0},
	}
	for _, cb := range combos {
		rng := tensor.NewRNG(int64(7*cb.inC + 3*cb.outC + cb.k))
		net := convReLUNet(cb.inC, cb.outC, cb.k, cb.stride, cb.pad, rng)
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
			t.Fatalf("%+v: float32 fused step deviates by %g", cb, maxDiff)
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
	for _, lbl := range PlanLabels(cn) {
		if strings.Contains(lbl, "drop0") {
			t.Fatalf("dropout appears in plan: %v", PlanLabels(cn))
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
	via32 := cn.Infer32Into(nil, tensor.ToDense[float32](x))
	for i, v := range via32.Data() {
		if v != viaF64.Data()[i] {
			t.Fatalf("Infer32Into and Infer disagree at %d: %v vs %v", i, v, viaF64.Data()[i])
		}
	}
	// Float64 plans widen the input instead of failing.
	cn64, err := Compile(net, Float64)
	if err != nil {
		t.Fatal(err)
	}
	if out := cn64.Infer32Into(nil, tensor.ToDense[float32](x)); out.Len() != 6 {
		t.Fatalf("f64 Infer32Into returned %v", out.Shape())
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
