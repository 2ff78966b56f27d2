package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"shredder/internal/data"
	"shredder/internal/model"
	"shredder/internal/tensor"
)

// pinRig builds an untrained zoo network from a fixed seed, cuts it, and
// draws a synthetic dataset: TrainNoise never updates weights, so the
// arithmetic a digest pins does not need a pre-trained model.
func pinRig(t testing.TB, spec model.Spec, cut string, n int) (*Split, *data.Dataset) {
	t.Helper()
	rng := tensor.NewRNG(71)
	net := spec.Build(rng)
	layer, err := spec.CutLayer(cut)
	if err != nil {
		t.Fatal(err)
	}
	shape := spec.Dataset.SampleShape()
	split, err := NewSplit(net, layer, shape)
	if err != nil {
		t.Fatal(err)
	}
	return split, syntheticSet(rng, shape, split.Net.OutShape(shape)[0], n)
}

// syntheticSet draws n unit-normal images of the given shape with uniform
// labels.
func syntheticSet(rng *tensor.RNG, shape []int, classes, n int) *data.Dataset {
	images := rng.FillNormal(tensor.New(append([]int{n}, shape...)...), 0, 1)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	return &data.Dataset{Name: "synthetic", Classes: classes, Images: images, Labels: labels}
}

// trainDigest is the SHA-256 of everything a run returns: the learned noise,
// the weight of a multiplicative run, the bookkeeping and every event field.
func trainDigest(res *TrainResult) string {
	h := sha256.New()
	var b [8]byte
	put := func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	put(res.Noise.Values().Data()...)
	if res.Weight != nil {
		put(res.Weight.Values().Data()...)
	}
	put(float64(res.Iterations), res.Epochs, res.FinalInVivo)
	for _, e := range res.Events {
		put(float64(e.Iteration), e.Epoch, e.Loss, e.CE, e.NoiseL1, e.InVivo, e.BatchAcc, e.Lambda)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainNoisePinned holds TrainNoise to digests recorded from the tape
// implementation (RemoteT/RemoteBackwardT, Local recomputed and the dataset
// copied every epoch) before the training plan replaced it: the learned
// noise, the weight, FinalInVivo and every event are the same bits in all
// five modes.
func TestTrainNoisePinned(t *testing.T) {
	base := NoiseConfig{Scale: 1.5, Lambda: 0.01, PrivacyTarget: 2, Epochs: 2, Seed: 500, EvalEvery: 2}
	with := func(f func(*NoiseConfig)) NoiseConfig {
		c := base
		f(&c)
		return c
	}
	for _, tc := range []struct {
		name string
		spec model.Spec
		cut  string
		n    int
		cfg  NoiseConfig
		want string
	}{
		{"additive", model.LeNet(), "conv0", 80, base,
			"d458e3b6449277e1898d4fc5259deb84294652cf9fe8670ee320312f18278fb3"},
		{"multiplicative", model.LeNet(), "conv0", 80, with(func(c *NoiseConfig) { c.Multiplicative = true }),
			"27478fe2ac0ee82c5af47cc8c13268a450ad8c65f1cb82024524d9496896e565"},
		{"self-supervised", model.LeNet(), "conv1", 80, with(func(c *NoiseConfig) { c.SelfSupervised = true }),
			"d0f2d49c5fd4f6799d3b79a1ab91b9f8edd9f4debc4c7d6353d8b0248ee862ca"},
		{"fractional-epoch", model.LeNet(), "conv2", 80, with(func(c *NoiseConfig) { c.Epochs = 0.5; c.EvalEvery = 1 }),
			"7f710b6c7d0ab54f617340bdfab472f699ab5677f8cf786cc7f270ab52e38e7c"},
		{"dropout-net", model.CifarNet(), "conv2", 40, with(func(c *NoiseConfig) { c.Epochs = 1.5; c.BatchSize = 16 }),
			"5bc31a74264e8b7c7ede1862df48c05cb820d29510db004c1269f24e3f98b7fa"},
		{"dropout-lrn-net", model.AlexNet(), "conv1", 12, with(func(c *NoiseConfig) { c.Epochs = 1.5; c.BatchSize = 8 }),
			"7548dce14542e3e6d752accc5a199f1d986eb8b6f6bb4e0018c27733e0597094"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			split, ds := pinRig(t, tc.spec, tc.cut, tc.n)
			if got := trainDigest(TrainNoise(split, ds, tc.cfg)); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}
