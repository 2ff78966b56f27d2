package attack

import (
	"testing"

	"shredder/internal/core"
	"shredder/internal/model"
	"shredder/internal/noisedist"
	"shredder/internal/tensor"
)

func attackRig(t *testing.T) (*core.Split, *model.Pretrained) {
	t.Helper()
	pre, err := model.Train(model.LeNet(), model.TrainConfig{TrainN: 300, TestN: 60, Epochs: 2, Seed: 60})
	if err != nil {
		t.Fatal(err)
	}
	// Attack the shallowest cut: conv0 activations retain the most input
	// information, so inversion is meaningful there.
	layer, err := pre.Spec.CutLayer("conv0")
	if err != nil {
		t.Fatal(err)
	}
	split, err := core.NewSplit(pre.Net, layer, pre.Spec.Dataset.SampleShape())
	if err != nil {
		t.Fatal(err)
	}
	return split, pre
}

func TestInvertRecoversFromCleanActivation(t *testing.T) {
	split, pre := attackRig(t)
	x := pre.Test.Images.Slice(0).Reshape(1, 1, 28, 28)
	a := split.Local(x)
	res := Invert(split, a, x, Config{Steps: 250, Seed: 1})
	if res.ActivationMSE > 0.05 {
		t.Fatalf("attack failed to match clean activation: MSE %v", res.ActivationMSE)
	}
	// The reconstruction must be far better than a random guess.
	guess := tensor.NewRNG(2).FillNormal(tensor.New(1, 1, 28, 28), 0, 0.5)
	d := tensor.Sub(guess.Flatten(), x.Flatten())
	randMSE := d.SqSum() / float64(d.Len())
	if res.InputMSE >= randMSE*0.8 {
		t.Fatalf("clean-activation reconstruction (MSE %v) no better than random (%v)", res.InputMSE, randMSE)
	}
}

func TestNoiseDegradesInversion(t *testing.T) {
	split, pre := attackRig(t)
	// Heavy untrained Laplace noise: enough to wreck the observation.
	rng := tensor.NewRNG(3)
	col := &core.Collection{}
	for i := 0; i < 4; i++ {
		col.AddMember(core.NewNoiseTensor(split.ActivationShape(), 0, 3, rng), nil, 1)
	}
	clean, shredded := Evaluate(split, pre.Test.Images, col, 2, Config{Steps: 200, Seed: 4})
	if shredded <= clean {
		t.Fatalf("noise should hurt reconstruction: clean MSE %v, shredded MSE %v", clean, shredded)
	}
}

// TestFittedSourcesResistInversion runs the inversion adversary against
// every deployment mode of the same trained-noise stand-in: stored replay,
// fitted per-query sampling, and multiplicative fitted-mul. Fresh sampling
// must degrade reconstruction at least comparably to replaying the stored
// members — the fitted modes exist to shrink memory, not to leak more.
func TestFittedSourcesResistInversion(t *testing.T) {
	split, pre := attackRig(t)
	rng := tensor.NewRNG(5)
	col := &core.Collection{}
	for i := 0; i < 4; i++ {
		col.AddMember(
			core.NewNoiseTensor(split.ActivationShape(), 0, 3, rng),
			core.NewWeightTensor(split.ActivationShape(), 1, 0.3, rng), 0)
	}
	fitted, err := core.FitCollection(col, noisedist.Laplace)
	if err != nil {
		t.Fatal(err)
	}
	if fitted.Mode() != core.ModeFittedMul {
		t.Fatalf("weighted fit deployed as %q", fitted.Mode())
	}
	// The additive baseline replays the same noise members without weights.
	additive := &core.Collection{Shape: split.ActivationShape(), Members: col.Members, InVivo: col.InVivo}
	fittedAdd, err := core.FitCollection(additive, noisedist.Laplace)
	if err != nil {
		t.Fatal(err)
	}

	cfg := Config{Steps: 150, Seed: 6}
	clean, stored := Evaluate(split, pre.Test.Images, additive, 1, cfg)
	_, fresh := Evaluate(split, pre.Test.Images, fittedAdd, 1, cfg)
	_, mul := Evaluate(split, pre.Test.Images, fitted, 1, cfg)
	t.Logf("inversion MSE: clean %.4f, stored %.4f, fitted %.4f, fitted-mul %.4f",
		clean, stored, fresh, mul)
	for name, got := range map[string]float64{"fitted": fresh, "fitted-mul": mul} {
		if got <= clean {
			t.Errorf("%s source did not degrade inversion: shredded MSE %.4f <= clean %.4f", name, got, clean)
		}
		// "At least as well as stored replay", with slack for sampling
		// variance between a 4-member replay and a fresh draw.
		if got < 0.7*stored {
			t.Errorf("%s source resists far worse than stored replay: %.4f vs %.4f", name, got, stored)
		}
	}
}

func TestInvertDeterministic(t *testing.T) {
	split, pre := attackRig(t)
	x := pre.Test.Images.Slice(1).Reshape(1, 1, 28, 28)
	a := split.Local(x)
	r1 := Invert(split, a, x, Config{Steps: 50, Seed: 9})
	r2 := Invert(split, a, x, Config{Steps: 50, Seed: 9})
	if !tensor.Equal(r1.Reconstruction, r2.Reconstruction) {
		t.Fatal("same seed must reproduce the same reconstruction")
	}
}

func TestInvertWithoutTrueInput(t *testing.T) {
	split, pre := attackRig(t)
	x := pre.Test.Images.Slice(2).Reshape(1, 1, 28, 28)
	a := split.Local(x)
	res := Invert(split, a, nil, Config{Steps: 20, Seed: 5})
	if res.InputMSE != 0 {
		t.Fatal("InputMSE should be 0 when the true input is withheld")
	}
	if !res.Reconstruction.AllFinite() {
		t.Fatal("reconstruction diverged")
	}
}

func TestGalleryIdentifyCleanIsPerfect(t *testing.T) {
	split, pre := attackRig(t)
	res := GalleryIdentify(split, pre.Test.Images.Slice(0).Reshape(1, 1, 28, 28), nil, 1, 1)
	if res.Top1 != 1 {
		t.Fatalf("singleton gallery should be trivially identified: %+v", res)
	}
	full := GalleryIdentify(split, pre.Test.Images, nil, 20, 1)
	if full.Top1 != 1 {
		t.Fatalf("clean observations must be perfectly identifiable: %+v", full)
	}
}

func TestGalleryIdentifyNoiseReducesTop1(t *testing.T) {
	split, pre := attackRig(t)
	rng := tensor.NewRNG(7)
	col := &core.Collection{}
	for i := 0; i < 6; i++ {
		col.AddMember(core.NewNoiseTensor(split.ActivationShape(), 0, 5, rng), nil, 1)
	}
	clean := GalleryIdentify(split, pre.Test.Images, nil, 30, 8)
	noisy := GalleryIdentify(split, pre.Test.Images, col, 30, 8)
	if noisy.Top1 >= clean.Top1 {
		t.Fatalf("noise should reduce identification: clean %.2f, noisy %.2f", clean.Top1, noisy.Top1)
	}
	if noisy.Trials != 30 {
		t.Fatalf("trials = %d", noisy.Trials)
	}
}
