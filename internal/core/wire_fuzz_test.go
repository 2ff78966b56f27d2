package core

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"shredder/internal/noisedist"
	"shredder/internal/tensor"
	"shredder/internal/wire"
)

// noiseFileSeeds are the noise files FuzzDecodeNoiseSource starts from: one
// valid file of each kind a cold start may find, and the ways one goes wrong
// (TestDecodeBadPayloads holds the rest of the hostile list; the corpus under
// testdata/fuzz holds three files of the gob formats, refused).
func noiseFileSeeds(t testing.TB) map[string][]byte {
	fit := func(col *Collection) *FittedCollection {
		fc, err := FitCollection(col, noisedist.Laplace)
		if err != nil {
			t.Fatal(err)
		}
		return fc
	}
	stored, fitted := encoded(t, syntheticCollection(2, true)), fit(syntheticCollection(2, true))
	// A fitted payload under dimensions that are not its own.
	reshaped := func(dims ...uint32) []byte {
		return append(append(noiseHeader(ModeFittedMul, dims), appendFitted(nil, fitted.Noise)...), appendFitted(nil, fitted.Weight)...)
	}
	return map[string][]byte{
		"stored":        encoded(t, fixtureCollection()),
		"stored mul":    stored,
		"fitted":        encoded(t, fit(syntheticCollection(3, false))),
		"fitted mul":    encoded(t, fitted),
		"old gob v1":    readFixture(t, "legacy_v1.gob"),
		"old gob v2":    readFixture(t, "legacy_v2_stored_mul.gob"),
		"magic alone":   []byte(noiseMagic),
		"magic garbage": append([]byte(noiseMagic), "not fields"...),
		"truncated":     stored[:len(stored)-9],
		"trailing byte": append(append([]byte(nil), stored...), 0),

		"fitted negative dims": reshaped(0xfffffffd, 0xfffffffc),
		"fitted wrapping dims": reshaped(math.MaxInt32, math.MaxInt32, math.MaxInt32, math.MaxInt32, 12),
		"fitted rank 9":        reshaped(1, 1, 1, 1, 1, 1, 1, 3, 4),
		"members wrap to 8":    wire.AppendFloats(le32(noiseHeader(ModeStored, []uint32{1}), 1<<29+1), []float64{1}),
		"members past the end": le32(noiseHeader(ModeStored, []uint32{3, 4}), 0xffffffff),
		"member NaN":           le32(wire.AppendFloats(le32(noiseHeader(ModeStored, []uint32{1}), 1), []float64{math.NaN()}), 0),
	}
}

// consistent reports what is wrong with a decoded source's shape, member
// count, per-member lengths or values — nothing it can draw may be other
// than a finite number (Validate holds the sketches and summaries to that)
// — or "" when all is well.
func consistent(src NoiseSource) string {
	vol, ok := wire.CheckedVolume(src.NoiseShape(), math.MaxInt)
	if !ok || vol <= 0 {
		return "shape has no positive, representable volume"
	}
	tensors := func(kind string, ts []*tensor.Tensor, members int) string {
		if len(ts) != members {
			return kind + " count differs from the member count"
		}
		for _, m := range ts {
			if m == nil || !tensor.ShapeEq(m.Shape(), src.NoiseShape()) || m.Len() != vol {
				return kind + " tensor does not have the source's shape"
			}
			if !allFinite(m.Data()) {
				return kind + " tensor holds a value that is not a finite number"
			}
		}
		return ""
	}
	dist := func(kind string, f *noisedist.Fitted, members int) string {
		if err := f.Validate(); err != nil {
			return kind + " distribution: " + err.Error()
		}
		if !tensor.ShapeEq(f.Shape, src.NoiseShape()) || f.Components() != members ||
			len(f.Sketches) != members || len(f.Orders) != members {
			return kind + " distribution disagrees with the source's shape or member count"
		}
		for i := range f.Orders {
			if len(f.Orders[i]) != vol || len(f.Sketches[i]) < 2 {
				return kind + " distribution has a member of the wrong length"
			}
		}
		return ""
	}
	if v := src.MeanInVivo(); math.IsNaN(v) {
		return "mean in vivo privacy is NaN"
	}
	switch s := src.(type) {
	case *Collection:
		if s.Len() == 0 {
			return "stored collection without members"
		}
		if !allFinite(s.InVivo) {
			return "an in vivo value is not a finite number"
		}
		if msg := tensors("member", s.Members, s.Len()); msg != "" {
			return msg
		}
		if s.Multiplicative() {
			return tensors("weight", s.Weights, s.Len())
		}
		return ""
	case *FittedCollection:
		if s.Noise == nil || s.Components() == 0 {
			return "fitted collection without components"
		}
		if !allFinite(s.InVivo) {
			return "an in vivo value is not a finite number"
		}
		if msg := dist("noise", s.Noise, s.Components()); msg != "" {
			return msg
		}
		if s.Weight != nil {
			return dist("weight", s.Weight, s.Components())
		}
		return ""
	}
	return "unknown source type"
}

// objects counts what a decoded source holds one heap object each for: a
// tensor per stored member and weight; a sketch and an order per fitted
// component.
func objects(src NoiseSource) int {
	switch s := src.(type) {
	case *Collection:
		return len(s.Members) + len(s.Weights)
	case *FittedCollection:
		if s.Weight != nil {
			return 4 * s.Components()
		}
		return 2 * s.Components()
	}
	return 0
}

// FuzzDecodeNoiseSource: the noise file is the other file a cold start
// reads. Any bytes either fail with one of the typed errors or decode into a
// source that is consistent with itself, that the serving path can draw
// from and that encodes back to those bytes — never a panic — and what the
// decode allocates is bounded by the file's real length, whatever counts it
// declares.
func FuzzDecodeNoiseSource(f *testing.F) {
	for _, file := range noiseFileSeeds(f) {
		f.Add(file)
	}
	f.Fuzz(func(t *testing.T, file []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		src, err := DecodeNoiseSource(bytes.NewReader(file))
		runtime.ReadMemStats(&after)
		grew := after.TotalAlloc - before.TotalAlloc
		if err != nil {
			if !errors.Is(err, ErrCollectionCorrupt) && !errors.Is(err, ErrCollectionEmpty) && !errors.Is(err, ErrNotStoredCollection) {
				t.Fatalf("untyped decode error: %v", err)
			}
			// A refusal may come after part of the file was converted: the
			// read, the values (never more bytes than the file spends on
			// them) and, per value-carrying object, a header the file does
			// not carry — at the worst a rank-8 tensor of one element, 160
			// bytes for its eight.
			if grew > 24*uint64(len(file))+64<<10 {
				t.Fatalf("refusing a %d-byte file allocated %d bytes", len(file), grew)
			}
			return
		}
		// The file is read once and converted once, straight into place: two
		// copies of its bytes, the objects' own headers, and the permutation
		// check's one bit per order entry against the 32 the file spends.
		if limit := 2*uint64(len(file)) + uint64(len(file))/32 + 192*uint64(objects(src)) + 64<<10; grew > limit {
			t.Fatalf("decoding a %d-byte file allocated %d bytes, want at most %d", len(file), grew, limit)
		}
		if msg := consistent(src); msg != "" {
			t.Fatalf("decoded an inconsistent %s source: %s", src.Mode(), msg)
		}
		var again bytes.Buffer
		if err := EncodeNoiseSource(&again, src); err != nil || !bytes.Equal(again.Bytes(), file) {
			t.Fatalf("an accepted file does not encode back to itself (%v)", err)
		}
		a := tensor.New(src.NoiseShape()...)
		var scratch DrawScratch
		DrawReusing(src, &scratch, tensor.NewRNG(1)).ApplyInPlace(a)
	})
}

func TestNoiseFileSeedsDecodeOrFailTyped(t *testing.T) {
	for name, file := range noiseFileSeeds(t) {
		src, err := DecodeNoiseSource(bytes.NewReader(file))
		valid := name == "stored" || name == "stored mul" || name == "fitted" || name == "fitted mul"
		if valid == errors.Is(err, ErrCollectionCorrupt) || (err != nil) == valid {
			t.Errorf("%s: err = %v", name, err)
		} else if err == nil && consistent(src) != "" {
			t.Errorf("%s: %s", name, consistent(src))
		}
	}
}
