package model

import (
	"strings"
	"testing"

	"shredder/internal/tensor"
)

func TestAllSpecsBuildAndRun(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			rng := tensor.NewRNG(1)
			net := spec.Build(rng)
			in := spec.Dataset.SampleShape()
			out := net.OutShape(in)
			if !tensor.ShapeEq(out, []int{spec.Dataset.Classes()}) {
				t.Fatalf("%s output shape %v, want [%d]", spec.Name, out, spec.Dataset.Classes())
			}
			// A forward pass on a real batch must produce finite logits.
			ds := spec.Dataset.Generate(4, 2)
			logits := net.Forward(ds.Images, false)
			if !logits.AllFinite() {
				t.Fatalf("%s produced non-finite logits", spec.Name)
			}
			if !tensor.ShapeEq(logits.Shape(), []int{4, spec.Dataset.Classes()}) {
				t.Fatalf("%s logits shape %v", spec.Name, logits.Shape())
			}
		})
	}
}

func TestCutPointsResolve(t *testing.T) {
	for _, spec := range All() {
		rng := tensor.NewRNG(1)
		net := spec.Build(rng)
		if len(spec.CutPoints) == 0 {
			t.Fatalf("%s has no cut points", spec.Name)
		}
		for _, cp := range spec.CutPoints {
			if !strings.HasPrefix(cp.Name, "conv") {
				t.Errorf("%s cut name %q should be a convN name", spec.Name, cp.Name)
			}
			if net.Index(cp.Layer) < 0 {
				t.Errorf("%s cut %s resolves to missing layer %q", spec.Name, cp.Name, cp.Layer)
			}
			layer, err := spec.CutLayer(cp.Name)
			if err != nil || layer != cp.Layer {
				t.Errorf("CutLayer(%s) = %q, %v", cp.Name, layer, err)
			}
		}
		if _, err := spec.CutLayer("conv99"); err == nil {
			t.Errorf("%s: CutLayer should fail on unknown cut", spec.Name)
		}
		// Default cut must be one of the cut points (the deepest).
		if got, err := spec.CutLayer(spec.DefaultCut); err != nil || net.Index(got) < 0 {
			t.Errorf("%s default cut %q invalid: %v", spec.Name, spec.DefaultCut, err)
		}
		if spec.DefaultCut != spec.CutPoints[len(spec.CutPoints)-1].Name {
			t.Errorf("%s default cut %q is not the deepest conv", spec.Name, spec.DefaultCut)
		}
	}
}

func TestCutPointsAreOrderedShallowToDeep(t *testing.T) {
	for _, spec := range All() {
		rng := tensor.NewRNG(1)
		net := spec.Build(rng)
		last := -1
		for _, cp := range spec.CutPoints {
			idx := net.Index(cp.Layer)
			if idx <= last {
				t.Errorf("%s: cut %s at layer index %d not deeper than previous %d", spec.Name, cp.Name, idx, last)
			}
			last = idx
		}
	}
}

func TestByNameAndAll(t *testing.T) {
	for _, name := range []string{"lenet", "cifar", "svhn", "alexnet"} {
		spec, err := ByName(name)
		if err != nil || spec.Name != name {
			t.Fatalf("ByName(%s) = %v, %v", name, spec.Name, err)
		}
	}
	if _, err := ByName("vgg"); err == nil {
		t.Fatal("ByName should reject unknown network")
	}
	if len(All()) != 4 {
		t.Fatalf("All() returned %d specs", len(All()))
	}
}

func TestBenchmarksRegistry(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 4 {
		t.Fatalf("got %d benchmarks", len(bs))
	}
	var prevLambda float64 = 1
	for _, b := range bs {
		if b.NoiseScale <= 0 || b.NoiseLR <= 0 || b.NoiseEpochs <= 0 {
			t.Errorf("%s: non-positive hyperparameters %+v", b.Spec.Name, b)
		}
		if b.Lambda <= 0 {
			t.Errorf("%s: lambda must be positive (sign applied in the loss)", b.Spec.Name)
		}
		if b.Lambda > prevLambda {
			t.Errorf("%s: lambda should not grow with network size (paper §2.4)", b.Spec.Name)
		}
		prevLambda = b.Lambda
	}
	if _, err := BenchmarkByName("lenet"); err != nil {
		t.Fatal(err)
	}
	if _, err := BenchmarkByName("nope"); err == nil {
		t.Fatal("BenchmarkByName should reject unknown name")
	}
}

func TestTrainLeNetTinyLearns(t *testing.T) {
	// A tiny pre-training run must beat chance (10%) comfortably.
	pre, err := Train(LeNet(), TrainConfig{TrainN: 400, TestN: 100, Epochs: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if pre.TestAcc < 0.4 {
		t.Fatalf("LeNet tiny run test acc = %.2f, want > 0.40", pre.TestAcc)
	}
	if pre.Std <= 0 {
		t.Fatal("normalization stats not recorded")
	}
	if pre.Train.N() != 400 || pre.Test.N() != 100 {
		t.Fatalf("split sizes %d/%d", pre.Train.N(), pre.Test.N())
	}
}

func TestEvaluateEmptyDataset(t *testing.T) {
	spec := LeNet()
	net := spec.Build(tensor.NewRNG(1))
	empty := spec.Dataset.Generate(0, 1)
	if acc, err := Evaluate(net, empty, 8); acc != 0 || err != nil {
		t.Fatalf("Evaluate on empty dataset = %v, %v; want 0, nil", acc, err)
	}
}

func TestTrainCachedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := TrainConfig{TrainN: 200, TestN: 60, Epochs: 1, Seed: 9}
	first, err := TrainCached(LeNet(), cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	second, err := TrainCached(LeNet(), cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	// Second run must load identical weights (same forward outputs).
	x := first.Test.Images.Slice(0).Reshape(1, 1, 28, 28)
	a := first.Net.Forward(x, false)
	b := second.Net.Forward(x, false)
	if !tensor.AllClose(a, b, 1e-12) {
		t.Fatal("cached weights differ from trained weights")
	}
	if second.TestAcc != first.TestAcc {
		t.Fatalf("cached accuracy %v != trained %v", second.TestAcc, first.TestAcc)
	}
}

func TestSpecsHaveDistinctParamSizes(t *testing.T) {
	// Guard against accidental topology collapse between benchmarks.
	sizes := map[string]int{}
	for _, spec := range All() {
		net := spec.Build(tensor.NewRNG(1))
		sizes[spec.Name] = net.ParamCount()
	}
	if sizes["lenet"] >= sizes["alexnet"] {
		t.Fatalf("lenet (%d params) should be smaller than alexnet (%d)", sizes["lenet"], sizes["alexnet"])
	}
	if sizes["svhn"] <= 0 || sizes["cifar"] <= 0 {
		t.Fatal("degenerate parameter counts")
	}
}

// Verifies the paper's premise that deeper cut activations are smaller for
// SVHN (conv6 output ≪ conv0 output) — the basis of Fig. 6a's cost story.
func TestSvhnConv6OutputIsSmall(t *testing.T) {
	spec := SvhnNet()
	net := spec.Build(tensor.NewRNG(1))
	in := spec.Dataset.SampleShape()
	shallow, err := spec.CutLayer("conv0")
	if err != nil {
		t.Fatal(err)
	}
	deep, err := spec.CutLayer("conv6")
	if err != nil {
		t.Fatal(err)
	}
	sizeAt := func(layer string) int {
		return tensor.Volume(net.OutShapeAt(in, net.Index(layer)+1))
	}
	if s0, s6 := sizeAt(shallow), sizeAt(deep); s6*10 > s0 {
		t.Fatalf("conv6 output (%d) should be ≪ conv0 output (%d)", s6, s0)
	}
}
