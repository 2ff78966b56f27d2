package shredder

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinySystem builds a fast LeNet system for API tests.
func tinySystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem("lenet", Config{Seed: 3, TrainN: 400, TestN: 120, Epochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNetworksList(t *testing.T) {
	nets := Networks()
	if len(nets) != 4 {
		t.Fatalf("Networks() = %v", nets)
	}
	want := map[string]bool{"lenet": true, "cifar": true, "svhn": true, "alexnet": true}
	for _, n := range nets {
		if !want[n] {
			t.Fatalf("unexpected network %q", n)
		}
	}
}

func TestNewSystemUnknownNetwork(t *testing.T) {
	if _, err := NewSystem("resnet", Config{}); err == nil {
		t.Fatal("expected error for unknown network")
	}
}

func TestNewSystemBadCut(t *testing.T) {
	if _, err := NewSystem("lenet", Config{Cut: "conv9", TrainN: 50, TestN: 20, Epochs: 1}); err == nil {
		t.Fatal("expected error for unknown cut")
	}
}

func TestSystemBasics(t *testing.T) {
	sys := tinySystem(t)
	if sys.Network() != "lenet" || sys.Cut() != "conv2" {
		t.Fatalf("network %s cut %s", sys.Network(), sys.Cut())
	}
	if sys.Classes() != 10 {
		t.Fatalf("classes %d", sys.Classes())
	}
	if got := sys.InputShape(); got[0] != 1 || got[1] != 28 {
		t.Fatalf("input shape %v", got)
	}
	if sys.BaselineAccuracy() < 0.4 {
		t.Fatalf("baseline accuracy %v", sys.BaselineAccuracy())
	}
	if sys.TestSize() != 120 {
		t.Fatalf("test size %d", sys.TestSize())
	}
	if sys.HasNoise() {
		t.Fatal("fresh system should have no noise")
	}
}

func TestClassifyLifecycle(t *testing.T) {
	sys := tinySystem(t)
	pixels, _ := sys.TestSample(0)

	// Before noise: Classify errors, baseline works.
	if _, err := sys.Classify(pixels); err == nil {
		t.Fatal("Classify should fail before LearnNoise")
	}
	if _, err := sys.ClassifyBaseline(pixels); err != nil {
		t.Fatal(err)
	}

	sys.LearnNoiseWith(3, NoiseOptions{Scale: 2, Lambda: 0.01, PrivacyTarget: 4, Epochs: 5})
	if !sys.HasNoise() {
		t.Fatal("HasNoise false after LearnNoise")
	}
	if _, err := sys.Classify(pixels); err != nil {
		t.Fatal(err)
	}
	// Wrong pixel count must error.
	if _, err := sys.Classify(pixels[:10]); err == nil {
		t.Fatal("expected error for wrong pixel count")
	}

	// Noisy classification should still match labels most of the time.
	correct := 0
	n := 40
	for i := 0; i < n; i++ {
		px, y := sys.TestSample(i)
		got, err := sys.Classify(px)
		if err != nil {
			t.Fatal(err)
		}
		if got == y {
			correct++
		}
	}
	if correct < n/4 {
		t.Fatalf("noisy accuracy %d/%d collapsed", correct, n)
	}
}

func TestEvaluateReport(t *testing.T) {
	sys := tinySystem(t)
	sys.LearnNoiseWith(4, NoiseOptions{Scale: 2, Lambda: 0.01, PrivacyTarget: 4, Epochs: 3})
	rep := sys.Evaluate()
	if rep.Network != "lenet" || rep.Cut != "conv2" {
		t.Fatalf("report identity %+v", rep)
	}
	if rep.ShreddedMI >= rep.OriginalMI {
		t.Fatalf("MI did not drop: %v → %v", rep.OriginalMI, rep.ShreddedMI)
	}
	if rep.NoiseParams <= 0 || rep.NoiseParams >= rep.ModelParams {
		t.Fatalf("params: noise %d model %d", rep.NoiseParams, rep.ModelParams)
	}
	s := rep.String()
	for _, want := range []string{"lenet", "MI", "noise params"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report string missing %q: %s", want, s)
		}
	}
}

func TestEvaluateWithoutNoisePanics(t *testing.T) {
	sys := tinySystem(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sys.Evaluate()
}

func TestSaveLoadNoise(t *testing.T) {
	sys := tinySystem(t)
	sys.LearnNoiseWith(2, NoiseOptions{Epochs: 0.5})
	dir := t.TempDir()
	path := filepath.Join(dir, "noise.bin")
	if err := sys.SaveNoise(path); err != nil {
		t.Fatal(err)
	}

	other := tinySystem(t)
	if err := other.LoadNoise(path); err != nil {
		t.Fatal(err)
	}
	if !other.HasNoise() {
		t.Fatal("LoadNoise did not install collection")
	}
	px, _ := other.TestSample(0)
	if _, err := other.Classify(px); err != nil {
		t.Fatal(err)
	}

	// Loading into a mismatched cut must fail.
	shallow, err := NewSystem("lenet", Config{Cut: "conv0", Seed: 3, TrainN: 100, TestN: 30, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := shallow.LoadNoise(path); err == nil {
		t.Fatal("LoadNoise should reject mismatched activation shape")
	}
}

func TestSaveNoiseWithoutCollection(t *testing.T) {
	sys := tinySystem(t)
	if err := sys.SaveNoise(filepath.Join(t.TempDir(), "x.bin")); err == nil {
		t.Fatal("SaveNoise should fail with no collection")
	}
}

func TestCloudEdgeRoundTrip(t *testing.T) {
	sys := tinySystem(t)
	sys.LearnNoiseWith(3, NoiseOptions{Scale: 2, Lambda: 0.01, PrivacyTarget: 4, Epochs: 5})
	cloud, err := sys.ServeCloud("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	edge, err := sys.ConnectEdge(cloud.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()

	correct, n := 0, 30
	for i := 0; i < n; i++ {
		px, y := sys.TestSample(i)
		got, err := edge.Classify(px)
		if err != nil {
			t.Fatal(err)
		}
		if got == y {
			correct++
		}
	}
	if correct < n/4 {
		t.Fatalf("remote noisy accuracy %d/%d collapsed", correct, n)
	}
}

// TestDtypeFacade pins the Config.Dtype plumbing: a float32 system must
// make the same classification decisions as a float64 one built from the
// same cached weights — locally (baseline and noisy) and when serving the
// compiled remote part over TCP.
func TestDtypeFacade(t *testing.T) {
	if _, err := NewSystem("lenet", Config{Seed: 3, Dtype: "bfloat16"}); err == nil {
		t.Fatal("unknown dtype should be rejected at construction")
	}

	cache := t.TempDir()
	cfg := Config{Seed: 3, TrainN: 400, TestN: 120, Epochs: 3, WeightCacheDir: cache}
	sys64, err := NewSystem("lenet", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dtype = "f32"
	sys32, err := NewSystem("lenet", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys64.Dtype() != "float64" || sys32.Dtype() != "float32" {
		t.Fatalf("dtype accessors: %q / %q", sys64.Dtype(), sys32.Dtype())
	}

	n := 40
	for i := 0; i < n; i++ {
		px, _ := sys64.TestSample(i)
		want, err := sys64.ClassifyBaseline(px)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sys32.ClassifyBaseline(px)
		if err != nil {
			t.Fatal(err)
		}
		if want != got {
			t.Fatalf("sample %d: float32 baseline decision %d, float64 %d", i, got, want)
		}
	}

	// Same seeds → byte-identical noise collections and sampling order, so
	// the noisy float32 decisions must reproduce the float64 ones too.
	opt := NoiseOptions{Scale: 2, Lambda: 0.01, PrivacyTarget: 4, Epochs: 3}
	sys64.LearnNoiseWith(2, opt)
	sys32.LearnNoiseWith(2, opt)
	for i := 0; i < n; i++ {
		px, _ := sys64.TestSample(i)
		want, err := sys64.Classify(px)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sys32.Classify(px)
		if err != nil {
			t.Fatal(err)
		}
		if want != got {
			t.Fatalf("sample %d: noisy float32 decision %d, float64 %d", i, got, want)
		}
	}

	// ServeCloud inherits the system dtype. Two fresh edge clients share
	// the same seed and byte-identical collections, so they draw the same
	// noise sequence — the float32-served decisions must reproduce the
	// float64-served ones exactly.
	cloud64, err := sys64.ServeCloud("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cloud64.Close()
	cloud32, err := sys32.ServeCloud("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cloud32.Close()
	edge64, err := sys64.ConnectEdge(cloud64.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer edge64.Close()
	edge32, err := sys32.ConnectEdge(cloud32.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer edge32.Close()
	for i := 0; i < n; i++ {
		px, _ := sys64.TestSample(i)
		want, err := edge64.Classify(px)
		if err != nil {
			t.Fatal(err)
		}
		got, err := edge32.Classify(px)
		if err != nil {
			t.Fatal(err)
		}
		if want != got {
			t.Fatalf("sample %d: served float32 decision %d, float64 %d", i, got, want)
		}
	}
}

func TestWeightCache(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Seed: 5, TrainN: 150, TestN: 40, Epochs: 1, WeightCacheDir: dir}
	a, err := NewSystem("lenet", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSystem("lenet", cfg) // cache hit
	if err != nil {
		t.Fatal(err)
	}
	px, _ := a.TestSample(0)
	la, _ := a.ClassifyBaseline(px)
	lb, _ := b.ClassifyBaseline(px)
	if la != lb {
		t.Fatal("cached system disagrees with trained system")
	}
	if err := a.SaveWeights(filepath.Join(dir, "w.ckpt")); err != nil {
		t.Fatal(err)
	}
}

func TestAttackResistance(t *testing.T) {
	sys, err := NewSystem("lenet", Config{Cut: "conv0", Seed: 3, TrainN: 300, TestN: 60, Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AttackResistance(1, 50); err == nil {
		t.Fatal("AttackResistance should fail before LearnNoise")
	}
	sys.LearnNoiseWith(3, NoiseOptions{Scale: 2, Lambda: 0.01, PrivacyTarget: 4, Epochs: 2})
	rep, err := sys.AttackResistance(2, 150)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ShreddedMSE <= rep.CleanMSE {
		t.Fatalf("noise should degrade inversion: %+v", rep)
	}
	if rep.Ratio <= 1 {
		t.Fatalf("ratio %v should exceed 1", rep.Ratio)
	}
	if !strings.Contains(rep.String(), "inversion attack") {
		t.Fatal("report string malformed")
	}
}

func TestGalleryAttackFacade(t *testing.T) {
	sys, err := NewSystem("lenet", Config{Cut: "conv0", Seed: 3, TrainN: 300, TestN: 60, Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.GalleryAttack(5); err == nil {
		t.Fatal("GalleryAttack should fail before LearnNoise")
	}
	sys.LearnNoiseWith(3, NoiseOptions{Scale: 3, Lambda: 0.01, PrivacyTarget: 6, Epochs: 2})
	rep, err := sys.GalleryAttack(20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CleanTop1 != 1 {
		t.Fatalf("clean identification should be perfect, got %v", rep.CleanTop1)
	}
	// Accuracy-preserving noise does not necessarily defeat coarse
	// identification over a small gallery; it must just never help it.
	if rep.NoisyTop1 > rep.CleanTop1 {
		t.Fatalf("noise should not improve identification: %+v", rep)
	}
	if !strings.Contains(rep.String(), "gallery attack") {
		t.Fatal("report string malformed")
	}
}

func TestEdgeQuantizedTransportFacade(t *testing.T) {
	sys := tinySystem(t)
	cloud, err := sys.ServeCloud("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	edge, err := sys.ConnectEdge(cloud.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	if err := edge.SetWireQuantization(8); err != nil {
		t.Fatal(err)
	}
	px, _ := sys.TestSample(0)
	qPred, err := edge.Classify(px)
	if err != nil {
		t.Fatal(err)
	}
	basePred, err := sys.ClassifyBaseline(px)
	if err != nil {
		t.Fatal(err)
	}
	if qPred != basePred {
		t.Fatalf("8-bit transport changed the prediction: %d vs %d", qPred, basePred)
	}
	if edge.BytesSent() <= 0 {
		t.Fatal("byte counter did not advance")
	}
}

func TestNewSystemInvalidNoiseConfig(t *testing.T) {
	if _, err := NewSystem("lenet", Config{NoiseMode: "psychedelic", TrainN: 50, TestN: 20, Epochs: 1}); err == nil {
		t.Fatal("expected error for unknown noise mode")
	}
	if _, err := NewSystem("lenet", Config{NoiseDist: "cauchy", TrainN: 50, TestN: 20, Epochs: 1}); err == nil {
		t.Fatal("expected error for unknown noise distribution")
	}
}

// TestFittedLifecycle walks the fitted mode end to end: learn → classify →
// save (a file of distribution parameters, not tensors) → load into a
// stored-configured system, which deploys whatever mode the file carries.
func TestFittedLifecycle(t *testing.T) {
	sys, err := NewSystem("lenet", Config{Seed: 3, TrainN: 400, TestN: 120, Epochs: 3, NoiseMode: "fitted"})
	if err != nil {
		t.Fatal(err)
	}
	if sys.NoiseMode() != "fitted" {
		t.Fatalf("configured mode %q", sys.NoiseMode())
	}
	sys.LearnNoiseWith(3, NoiseOptions{Scale: 2, Lambda: 0.01, PrivacyTarget: 4, Epochs: 2})
	if !sys.HasNoise() || sys.NoiseMode() != "fitted" {
		t.Fatalf("after learn: HasNoise=%v mode=%q", sys.HasNoise(), sys.NoiseMode())
	}

	correct, n := 0, 40
	for i := 0; i < n; i++ {
		px, y := sys.TestSample(i)
		got, err := sys.Classify(px)
		if err != nil {
			t.Fatal(err)
		}
		if got == y {
			correct++
		}
	}
	if correct < n/4 {
		t.Fatalf("fitted accuracy %d/%d collapsed", correct, n)
	}

	path := filepath.Join(t.TempDir(), "fitted.bin")
	if err := sys.SaveNoise(path); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// The fitted file carries per-member int32 orders and float32 quantile
	// sketches instead of float64 tensors, so it must come in under a
	// stored-mode save of an equally sized collection.
	storedSys := tinySystem(t)
	storedSys.LearnNoiseWith(3, NoiseOptions{Scale: 2, Lambda: 0.01, PrivacyTarget: 4, Epochs: 2})
	storedPath := filepath.Join(t.TempDir(), "stored.bin")
	if err := storedSys.SaveNoise(storedPath); err != nil {
		t.Fatal(err)
	}
	storedInfo, err := os.Stat(storedPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() >= storedInfo.Size() {
		t.Fatalf("fitted file %d B is not smaller than the stored-mode file (%d B)", info.Size(), storedInfo.Size())
	}

	// A stored-configured system deploys the file's mode, not its own.
	other := tinySystem(t)
	if err := other.LoadNoise(path); err != nil {
		t.Fatal(err)
	}
	if other.NoiseMode() != "fitted" {
		t.Fatalf("loaded mode %q, want fitted", other.NoiseMode())
	}
	px, _ := other.TestSample(0)
	if _, err := other.Classify(px); err != nil {
		t.Fatal(err)
	}
}

// TestFittedMulLifecycle does the same for the multiplicative variant and
// checks it serves over the edge/cloud split.
func TestFittedMulLifecycle(t *testing.T) {
	sys, err := NewSystem("lenet", Config{Seed: 3, TrainN: 400, TestN: 120, Epochs: 3, NoiseMode: "fitted-mul"})
	if err != nil {
		t.Fatal(err)
	}
	sys.LearnNoiseWith(2, NoiseOptions{Scale: 1, Lambda: 0.01, PrivacyTarget: 4, Epochs: 2})
	if sys.NoiseMode() != "fitted-mul" {
		t.Fatalf("mode %q, want fitted-mul", sys.NoiseMode())
	}

	path := filepath.Join(t.TempDir(), "mul.bin")
	if err := sys.SaveNoise(path); err != nil {
		t.Fatal(err)
	}
	other := tinySystem(t)
	if err := other.LoadNoise(path); err != nil {
		t.Fatal(err)
	}
	if other.NoiseMode() != "fitted-mul" {
		t.Fatalf("loaded mode %q, want fitted-mul", other.NoiseMode())
	}

	cloud, err := other.ServeCloud("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	edge, err := other.ConnectEdge(cloud.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	correct, n := 0, 30
	for i := 0; i < n; i++ {
		px, y := other.TestSample(i)
		got, err := edge.Classify(px)
		if err != nil {
			t.Fatal(err)
		}
		if got == y {
			correct++
		}
	}
	if correct < n/4 {
		t.Fatalf("remote fitted-mul accuracy %d/%d collapsed", correct, n)
	}
}
