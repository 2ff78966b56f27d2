package model

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"shredder/internal/nn"
	"shredder/internal/tensor"
)

// weightDigest is the SHA-256 of every parameter of net, in layer order, as
// little-endian float64 bits.
func weightDigest(net *nn.Sequential) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range net.Params() {
		for _, v := range p.Value.Data() {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainPinned holds pre-training to digests recorded when every layer
// still kept a tape of its own and Train ran the struct-held-tape
// Forward/Backward: one tape owned by train gives the same weights bit for
// bit, Dropout's construction-time generator included (cifar, alexnet; svhn
// and alexnet were recorded on that tape before it left production, alexnet
// bringing LRN). A checkpoint
// carries those weights bit for bit too: saved and loaded into a freshly
// built network, they hash to the same digests.
func TestTrainPinned(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		cfg  TrainConfig
		want string
	}{
		{LeNet(), TrainConfig{TrainN: 96, TestN: 16, Epochs: 2, Seed: 11},
			"2bee40ca9a4c54620608a464fe782ab5aec91f9ddb220afcd34241300de82564"},
		{CifarNet(), TrainConfig{TrainN: 48, TestN: 8, Epochs: 2, BatchSize: 16, Seed: 12},
			"75468b330d67b6f39736a4acae7f6e0d34714b4842921f43906e91a6f896d810"},
		{SvhnNet(), TrainConfig{TrainN: 32, TestN: 8, Epochs: 1, BatchSize: 16, Seed: 13},
			"909af32ad18008ba796e7ae497d79bead5f21dd3d1bfe62ddcdd12964971f8e5"},
		{AlexNet(), TrainConfig{TrainN: 32, TestN: 8, Epochs: 1, BatchSize: 16, Seed: 14},
			"ccfda67b39eac72f1d7d76adff5e227dd691f32067e4857b596e3999a3e27942"},
	} {
		pre, err := Train(tc.spec, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := weightDigest(pre.Net); got != tc.want {
			t.Errorf("%s: trained weights digest %s, want %s", tc.spec.Name, got, tc.want)
		}
		var file bytes.Buffer
		if err := nn.Save(pre.Net, nn.InputNorm{Mean: pre.Mean, Std: pre.Std}, &file); err != nil {
			t.Fatal(err)
		}
		loaded := tc.spec.Build(tensor.NewRNG(99))
		if _, err := nn.Load(loaded, &file); err != nil {
			t.Fatal(err)
		}
		if got := weightDigest(loaded); got != tc.want {
			t.Errorf("%s: weights loaded from a checkpoint digest %s, want %s", tc.spec.Name, got, tc.want)
		}
	}
}
