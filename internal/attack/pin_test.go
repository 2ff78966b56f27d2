package attack

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"shredder/internal/core"
	"shredder/internal/model"
	"shredder/internal/tensor"
)

// TestInvertPinned holds Invert to digests recorded from the explicit frozen
// tape before the attack moved onto the training plan of L: reconstruction
// and both errors are the same bits, through pooling, a strided padded
// convolution and LRN.
func TestInvertPinned(t *testing.T) {
	for _, tc := range []struct {
		spec model.Spec
		cut  string
		want string
	}{
		{model.LeNet(), "conv1", "907a88bab33c1eb2a30ae2527d0b19ff05dcfdeafd4ce9865091f39454eb7636"},
		{model.AlexNet(), "conv1", "7f1ca89d5f14831355184f92fde6175e80ab0d02226079c1bacf4a4a6b724589"},
	} {
		rng := tensor.NewRNG(81)
		net := tc.spec.Build(rng)
		layer, err := tc.spec.CutLayer(tc.cut)
		if err != nil {
			t.Fatal(err)
		}
		shape := tc.spec.Dataset.SampleShape()
		split, err := core.NewSplit(net, layer, shape)
		if err != nil {
			t.Fatal(err)
		}
		x := rng.FillNormal(tensor.New(append([]int{1}, shape...)...), 0, 1)
		res := Invert(split, split.Local(x), x, Config{Steps: 25, Seed: 7})

		h := sha256.New()
		var b [8]byte
		for _, v := range append(res.Reconstruction.Data(), res.ActivationMSE, res.InputMSE) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s/%s: digest %s, want %s", tc.spec.Name, tc.cut, got, tc.want)
		}
	}
}
