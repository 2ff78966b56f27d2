package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"shredder/internal/mi"
	"shredder/internal/model"
	"shredder/internal/noisedist"
	"shredder/internal/tensor"
)

// pinSources builds the four kinds of noise source over one activation shape
// without training: a stored additive collection, a stored multiplicative
// one, and the fit of each.
func pinSources(t testing.TB, shape []int) map[string]NoiseSource {
	t.Helper()
	rng := tensor.NewRNG(17)
	add, mul := &Collection{}, &Collection{}
	for i := 0; i < 3; i++ {
		n := NewNoiseTensor(shape, 0, 0.5+float64(i), rng)
		add.AddMember(n, nil, float64(i))
		mul.AddMember(n, NewWeightTensor(shape, 1, 0.25, rng), float64(i))
	}
	fit := func(c *Collection) NoiseSource {
		fc, err := FitCollection(c, noisedist.Laplace)
		if err != nil {
			t.Fatal(err)
		}
		return fc
	}
	return map[string]NoiseSource{
		ModeStored: add, "stored-mul": mul, ModeFitted: fit(add), ModeFittedMul: fit(mul),
	}
}

// floatHasher hashes float64 bit patterns, little-endian.
type floatHasher struct{ buf []byte }

func (h *floatHasher) put(vs ...float64) {
	for _, v := range vs {
		h.buf = binary.LittleEndian.AppendUint64(h.buf, math.Float64bits(v))
	}
}

func (h *floatHasher) sum() string {
	s := sha256.Sum256(h.buf)
	return hex.EncodeToString(s[:])
}

// TestEvaluatePinned holds Evaluate to digests recorded at d66d2bb, before
// the measurement sites moved onto DrawInto and Evaluate stopped running L
// three times: every EvalResult field keeps its bits for each kind of
// source, at one and at two processors.
func TestEvaluatePinned(t *testing.T) {
	split, ds := pinRig(t, model.LeNet(), "conv0", 100)
	srcs := pinSources(t, split.ActivationShape())
	for name, want := range map[string]string{
		ModeStored:    "e48046728c5c65a3b0afa5e408f48f79efffb5a1eeefeccee0d51f7e2bb5e87a",
		"stored-mul":  "c48552da397043b31c81d70c3696a71e074f1d93aef7cc369c97ddc000719d84",
		ModeFitted:    "b6763e6aa3a8ea85bd81b4373a002d04654e24c55b9624af371a3d7577791d61",
		ModeFittedMul: "fe74c09f4a6a23b8c86424e629d839084771a820ee5691019344d5ec71ab8c38",
	} {
		for _, procs := range []int{1, 2} {
			prev := runtime.GOMAXPROCS(procs)
			r := Evaluate(split, ds, srcs[name], EvalConfig{MI: mi.Options{K: 3, MaxSamples: 64, Seed: 9}, Seed: 9})
			runtime.GOMAXPROCS(prev)
			var h floatHasher
			h.put(r.BaselineAcc, r.NoisyAcc, r.AccLossPct, r.OrigMI, r.ShreddedMI, r.MILossBits, r.MILossPct, r.InVivo)
			if got := h.sum(); got != want {
				t.Errorf("%s at GOMAXPROCS %d: digest %s, want %s", name, procs, got, want)
			}
		}
	}
}

// TestDrawStreamPinned holds each kind of source to the random stream it
// consumed at d66d2bb: 64 draws from seed 5 — member, noise bits, weight
// bits — hash to the digests recorded there.
func TestDrawStreamPinned(t *testing.T) {
	srcs := pinSources(t, []int{6, 5, 5})
	for name, want := range map[string]string{
		ModeStored:    "6b3a7ba8f608fa91437e2922f0dc629e9d335b49dfae3d7c14d20e3807d9d371",
		"stored-mul":  "beeb4e880552a6b72319f85b4936d6d077b04e4ffdb3cb548ddd9d015e982ebe",
		ModeFitted:    "5fd9b1cc2e882caed637d7c39bbb8764449dfec6738887568b3186e7351baf76",
		ModeFittedMul: "c5f97e198286f2f321c8daf1d26b8d01fbc70f95992e43044afa426460ddab70",
	} {
		rng := tensor.NewRNG(5)
		var h floatHasher
		for i := 0; i < 64; i++ {
			d := srcs[name].DrawInto(nil, rng)
			h.put(float64(d.Member))
			h.put(d.Noise.Data()...)
			if d.Weight != nil {
				h.put(d.Weight.Data()...)
			}
		}
		if got := h.sum(); got != want {
			t.Errorf("%s: digest %s, want %s", name, got, want)
		}
	}
}
