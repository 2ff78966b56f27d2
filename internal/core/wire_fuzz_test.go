package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"shredder/internal/noisedist"
	"shredder/internal/tensor"
)

// noiseFileSeeds are the noise files FuzzDecodeNoiseSource starts from, one
// of each kind a cold start may find: the committed legacy v1 bare-gob file,
// a multiplicative v2 stored file and a fitted v2 file.
func noiseFileSeeds(t testing.TB) map[string][]byte {
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy_v1.gob"))
	if err != nil {
		t.Fatal(err)
	}
	encode := func(src NoiseSource) []byte {
		var buf bytes.Buffer
		if err := EncodeNoiseSource(&buf, src); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fitted, err := FitCollection(syntheticCollection(2, true), noisedist.Laplace)
	if err != nil {
		t.Fatal(err)
	}
	// Fitted payloads whose shape is not one: negative dimensions, and
	// dimensions whose product wraps round to the 12 elements the members
	// have: (2³²+1)(2³²−1) = 2⁶⁴−1, squared ≡ 1.
	hostile := func(shape ...int) []byte {
		var buf bytes.Buffer
		noise, weight := *fitted.Noise, *fitted.Weight
		noise.Shape, weight.Shape = shape, shape
		wire := noiseWireV2{Mode: ModeFittedMul, Shape: shape, Noise: &noise, Weight: &weight}
		if err := encodeV2(&buf, wire); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	return map[string][]byte{
		"v2 fitted negative dims": hostile(-3, -4),
		"v2 fitted wrapping dims": hostile(1<<32+1, 1<<32-1, 1<<32+1, 1<<32-1, 12),

		"legacy v1":        legacy,
		"v2 stored mul":    encode(syntheticCollection(2, true)),
		"v2 fitted mul":    encode(fitted),
		"v2 magic alone":   []byte(noiseMagicV2),
		"v2 magic garbage": append([]byte(noiseMagicV2), "not gob"...),
	}
}

// consistent reports what is wrong with a decoded source's shape, member
// count and per-member lengths, or "" when they agree.
func consistent(src NoiseSource) string {
	vol, ok := tensor.CheckedVolume(src.NoiseShape())
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
	switch s := src.(type) {
	case *Collection:
		if s.Len() == 0 {
			return "stored collection without members"
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

// FuzzDecodeNoiseSource: the noise file is the other file a cold start
// reads, v1 bare gob or v2 behind its magic line. Any bytes either fail with
// one of the typed errors or decode into a source that is consistent with
// itself and that the serving path can draw from — never a panic.
func FuzzDecodeNoiseSource(f *testing.F) {
	for _, file := range noiseFileSeeds(f) {
		f.Add(file)
	}
	f.Fuzz(func(t *testing.T, file []byte) {
		src, err := DecodeNoiseSource(bytes.NewReader(file))
		if err != nil {
			if !errors.Is(err, ErrCollectionCorrupt) && !errors.Is(err, ErrCollectionEmpty) && !errors.Is(err, ErrNotStoredCollection) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if msg := consistent(src); msg != "" {
			t.Fatalf("decoded an inconsistent %s source: %s", src.Mode(), msg)
		}
		a := tensor.New(src.NoiseShape()...)
		var scratch DrawScratch
		DrawReusing(src, &scratch, tensor.NewRNG(1)).ApplyInPlace(a)
	})
}

func TestNoiseFileSeedsDecodeOrFailTyped(t *testing.T) {
	for name, file := range noiseFileSeeds(t) {
		src, err := DecodeNoiseSource(bytes.NewReader(file))
		if bad := name != "legacy v1" && name != "v2 stored mul" && name != "v2 fitted mul"; bad != errors.Is(err, ErrCollectionCorrupt) {
			t.Errorf("%s: err = %v", name, err)
		} else if err == nil && consistent(src) != "" {
			t.Errorf("%s: %s", name, consistent(src))
		}
	}
}
