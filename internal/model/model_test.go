package model

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shredder/internal/nn"
	"shredder/internal/obs"
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
			plan, err := nn.Compile(net, nn.Float64)
			if err != nil {
				t.Fatal(err)
			}
			logits := plan.Infer(ds.Images)
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
	if acc := pre.TestAccuracy(); acc < 0.4 {
		t.Fatalf("LeNet tiny run test acc = %.2f, want > 0.40", acc)
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
	a := infer(t, first.Net, x)
	b := infer(t, second.Net, x)
	if !tensor.AllClose(a, b, 1e-12) {
		t.Fatal("cached weights differ from trained weights")
	}
	// Miss and hit measure the same accuracy, the one Evaluate returns.
	want, err := Evaluate(first.Net, first.Test, first.Config.BatchSize)
	if err != nil {
		t.Fatal(err)
	}
	if got := first.TestAccuracy(); got != want {
		t.Fatalf("trained accuracy %v, Evaluate returns %v", got, want)
	}
	if got := second.TestAccuracy(); got != want {
		t.Fatalf("cached accuracy %v != trained %v", got, want)
	}
}

// profiled returns spec with a Build that attaches prof to every network it
// constructs, so that whatever TrainCached runs through the network shows.
func profiled(spec Spec, prof *obs.Profiler) Spec {
	build := spec.Build
	spec.Build = func(rng *tensor.RNG) *nn.Sequential {
		net := build(rng)
		net.SetProfiler(prof)
		return net
	}
	return spec
}

// A cache hit loads: it runs nothing through the network. The accuracy is
// one test-set sweep when first asked for, and none after that.
func TestCacheHitRunsNoForwardPass(t *testing.T) {
	dir := t.TempDir()
	cfg := TrainConfig{TrainN: 96, TestN: 40, Epochs: 1, BatchSize: 16, Seed: 4}
	if _, err := TrainCached(LeNet(), cfg, dir); err != nil {
		t.Fatal(err)
	}
	prof := obs.NewProfiler(nil)
	pre, err := TrainCached(profiled(LeNet(), prof), cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if table := prof.Table(); len(table) != 0 {
		t.Fatalf("cache hit ran layer passes: %+v", table)
	}
	pre.TestAccuracy()
	pre.TestAccuracy()
	table := prof.Table()
	if len(table) == 0 {
		t.Fatal("TestAccuracy ran no forward pass")
	}
	const sweep = 3 // ceil(40 test samples / batches of 16)
	for _, lp := range table {
		if lp.ForwardCalls != sweep || lp.BackwardCalls != 0 {
			t.Errorf("%s: %d forward and %d backward calls, want one sweep of %d batches",
				lp.Layer, lp.ForwardCalls, lp.BackwardCalls, sweep)
		}
	}
}

// recording returns spec with a Build that appends the RNG of every call to
// *rngs before building.
func recording(spec Spec, rngs *[]*tensor.RNG) Spec {
	build := spec.Build
	spec.Build = func(rng *tensor.RNG) *nn.Sequential {
		*rngs = append(*rngs, rng)
		return build(rng)
	}
	return spec
}

// A cache hit builds the network's shapes only and loads the saved weights
// into them; the seeded initialisation is drawn only on a miss — an absent
// entry or one that does not load — which trains from it to Train's weights.
func TestCacheHitBuildsShapeOnly(t *testing.T) {
	cfg := TrainConfig{TrainN: 64, TestN: 16, Epochs: 1, BatchSize: 16, Seed: 6}
	want, err := Train(LeNet(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameWeights := func(what string, net *nn.Sequential) {
		t.Helper()
		for i, p := range want.Net.Params() {
			if !tensor.BitEqual(net.Params()[i].Value, p.Value) {
				t.Fatalf("%s: parameter %s differs from Train's", what, p.Name)
			}
		}
	}
	dir := t.TempDir()
	open := func() (*Pretrained, []*tensor.RNG) {
		t.Helper()
		var rngs []*tensor.RNG
		pre, err := Open(recording(LeNet(), &rngs), cfg, dir)
		if err != nil {
			t.Fatal(err)
		}
		return pre, rngs
	}
	miss := func(what string) {
		t.Helper()
		pre, rngs := open()
		if len(rngs) == 0 || rngs[len(rngs)-1] == nil {
			t.Fatalf("%s: the network was not built seeded (Build got %v)", what, rngs)
		}
		sameWeights(what, pre.Net)
	}
	miss("absent entry")

	pre, rngs := open()
	if len(rngs) != 1 || rngs[0] != nil {
		t.Fatalf("cache hit: Build got %v, want one call with a nil RNG", rngs)
	}
	sameWeights("cache hit", pre.Net)

	path := cachePath(dir, LeNet(), want.Config)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	miss("damaged entry")
}

// Split permutes all TrainN+TestN samples, so the training set — and the
// weights — depend on TestN, BatchSize and LR as much as on TrainN.
func TestCacheKeyCoversWhatWeightsDependOn(t *testing.T) {
	base := TrainConfig{TrainN: 64, TestN: 20, Epochs: 1, Seed: 2}.withDefaults(LeNet())
	for name, mutate := range map[string]func(*TrainConfig){
		"TestN":     func(c *TrainConfig) { c.TestN = 24 },
		"BatchSize": func(c *TrainConfig) { c.BatchSize = 8 },
		"LR":        func(c *TrainConfig) { c.LR = 2e-3 },
	} {
		other := base
		mutate(&other)
		if cachePath("d", LeNet(), other) == cachePath("d", LeNet(), base) {
			t.Errorf("configs differing in %s share cache entry %s", name, cachePath("d", LeNet(), base))
		}
	}
	// End to end: a second test-set size must train, not hit.
	dir := t.TempDir()
	other := base
	other.TestN = 24
	for _, cfg := range []TrainConfig{base, other} {
		if _, err := TrainCached(LeNet(), cfg, dir); err != nil {
			t.Fatal(err)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 2 {
		t.Fatalf("%d cache entries for two test-set sizes, want 2", len(entries))
	}
}

// A cache entry that does not load is a miss: retrain, rewrite, say so.
func TestDamagedCacheEntryIsAMiss(t *testing.T) {
	cfg := TrainConfig{TrainN: 64, TestN: 20, Epochs: 1, Seed: 2}
	dir := t.TempDir()
	good, err := TrainCached(LeNet(), cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	path := cachePath(dir, LeNet(), good.Config)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var wrongNet bytes.Buffer
	if err := nn.Save(CifarNet().Build(tensor.NewRNG(1)), nn.InputNorm{Std: 1}, &wrongNet); err != nil {
		t.Fatal(err)
	}
	// A checkpoint of the gob format that came before this one.
	oldGob, err := os.ReadFile(filepath.Join("..", "nn", "testdata", "old_gob_checkpoint.gob"))
	if err != nil {
		t.Fatal(err)
	}
	// The entry itself with its std, the second float64 behind the magic
	// line and the network name, zeroed.
	zeroStd := append([]byte(nil), whole...)
	clear(zeroStd[bytes.IndexByte(whole, '\n')+1+2+len(good.Net.Name())+8:][:8])
	for name, damaged := range map[string][]byte{
		"truncated":     whole[:len(whole)/2],
		"wrong network": wrongNet.Bytes(),
		"gob format":    oldGob,
		"zero std":      zeroStd,
	} {
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		var progress strings.Builder
		cfg.Progress = &progress
		pre, err := TrainCached(LeNet(), cfg, dir)
		if err != nil {
			t.Fatalf("%s entry: %v", name, err)
		}
		if !strings.Contains(progress.String(), "retraining") {
			t.Errorf("%s entry: Progress does not mention the retrain: %q", name, progress.String())
		}
		reloaded := LeNet().Build(tensor.NewRNG(1))
		norm, err := nn.LoadFile(reloaded, path)
		if err != nil {
			t.Fatalf("%s entry: cache file was not rewritten: %v", name, err)
		}
		if norm.Mean != good.Mean || norm.Std != good.Std || pre.Mean != good.Mean || pre.Std != good.Std {
			t.Fatalf("%s entry: rewritten normalisation %+v, retrained (%v, %v), want (%v, %v)",
				name, norm, pre.Mean, pre.Std, good.Mean, good.Std)
		}
		for i, p := range good.Net.Params() {
			if !tensor.Equal(pre.Net.Params()[i].Value, p.Value) || !tensor.Equal(reloaded.Params()[i].Value, p.Value) {
				t.Fatalf("%s entry: retrained or rewritten parameter %s differs", name, p.Name)
			}
		}
	}
}

// The checkpoint's normalisation cannot go stale silently: Open trusts it
// and renders nothing, and the materialisation that recomputes other bits is
// ErrNormalizationMismatch — for every caller, once.
func TestNormalizationMismatchIsATypedError(t *testing.T) {
	cfg := TrainConfig{TrainN: 48, TestN: 16, Epochs: 1, Seed: 3}
	dir := t.TempDir()
	good, err := TrainCached(LeNet(), cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	path := cachePath(dir, LeNet(), good.Config)
	stale := nn.InputNorm{Mean: good.Mean, Std: math.Nextafter(good.Std, 2)}
	if err := nn.SaveFile(good.Net, stale, path); err != nil {
		t.Fatal(err)
	}
	pre, err := Open(LeNet(), cfg, dir)
	if err != nil {
		t.Fatalf("Open of a loadable entry: %v", err)
	}
	if pre.Train != nil || pre.Test != nil || pre.Std != stale.Std {
		t.Fatalf("Open materialised or ignored the stored normalisation: std %v, want %v", pre.Std, stale.Std)
	}
	for i := 0; i < 2; i++ {
		if err := pre.Materialize(); !errors.Is(err, ErrNormalizationMismatch) {
			t.Fatalf("Materialize #%d: %v, want ErrNormalizationMismatch", i, err)
		}
	}
	if pre.Train != nil || pre.Test != nil {
		t.Fatal("a refused materialisation left splits behind")
	}
	if _, err := TrainCached(LeNet(), cfg, dir); !errors.Is(err, ErrNormalizationMismatch) {
		t.Fatalf("TrainCached: %v, want ErrNormalizationMismatch", err)
	}
}

// Open on a hit is TrainCached without the pixels: same weights, same
// normalisation, and every test sample rendered alone is the materialised
// split's row, for every benchmark's generator.
func TestOpenTestSampleEqualsMaterialised(t *testing.T) {
	for _, spec := range All() {
		cfg := TrainConfig{TrainN: 8, TestN: 6, Epochs: 1, BatchSize: 8, Seed: 11}
		dir := t.TempDir()
		want, err := TrainCached(spec, cfg, dir)
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := Open(spec, cfg, dir)
		if err != nil {
			t.Fatal(err)
		}
		if lazy.Train != nil || lazy.Test != nil {
			t.Fatalf("%s: Open on a hit materialised the splits", spec.Name)
		}
		if lazy.Mean != want.Mean || lazy.Std != want.Std {
			t.Fatalf("%s: opened normalisation (%v, %v), trained under (%v, %v)", spec.Name, lazy.Mean, lazy.Std, want.Mean, want.Std)
		}
		for i := 0; i < want.Test.N(); i++ {
			px, label := lazy.TestSample(i)
			if label != want.Test.Labels[i] || !tensor.Equal(tensor.From(px, spec.Dataset.SampleShape()...), want.Test.Image(i)) {
				t.Fatalf("%s: test sample %d rendered alone differs from the materialised split", spec.Name, i)
			}
		}
		if err := lazy.Materialize(); err != nil {
			t.Fatal(err)
		}
		if !tensor.Equal(lazy.Train.Images, want.Train.Images) || !tensor.Equal(lazy.Test.Images, want.Test.Images) {
			t.Fatalf("%s: splits materialised after Open differ from TrainCached's", spec.Name)
		}
	}
}

// Sizes no dataset can have come back as errors, not as a panic from the
// split; zero still selects the network's default.
func TestNegativeSizesAreErrors(t *testing.T) {
	for name, cfg := range map[string]TrainConfig{
		"TrainN":    {TrainN: -5},
		"TestN":     {TestN: -1},
		"Epochs":    {Epochs: -2},
		"BatchSize": {BatchSize: -8},
		"LR":        {LR: -1e-3},
	} {
		if _, err := Train(LeNet(), cfg); err == nil {
			t.Errorf("Train with negative %s: no error", name)
		}
		if _, err := TrainCached(LeNet(), cfg, t.TempDir()); err == nil {
			t.Errorf("TrainCached with negative %s: no error", name)
		}
		if _, err := Open(LeNet(), cfg, t.TempDir()); err == nil {
			t.Errorf("Open with negative %s: no error", name)
		}
	}
	pre, err := prepare(LeNet(), TrainConfig{})
	if err != nil || pre.Config.TrainN != 2400 || pre.Config.TestN != 600 || pre.Config.Epochs != 6 {
		t.Fatalf("zero config: %v, %+v", err, pre.Config)
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

// infer runs net on x through a float64 plan compiled for the call.
func infer(t *testing.T, net *nn.Sequential, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	plan, err := nn.Compile(net, nn.Float64)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Infer(x)
}
