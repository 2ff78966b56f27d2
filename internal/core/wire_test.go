package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shredder/internal/noisedist"
	"shredder/internal/tensor"
)

// fixtureCollection mirrors testdata/legacy_v1.gob exactly: the committed
// file was written by the v1 encoder over these values.
func fixtureCollection() *Collection {
	return &Collection{
		Shape: []int{2, 2},
		Members: []*tensor.Tensor{
			tensor.From([]float64{0.5, -1.25, 2, 3.75}, 2, 2),
			tensor.From([]float64{-0.5, 1.5, -2.25, 0.125}, 2, 2),
		},
		InVivo: []float64{1.5, 2.5},
	}
}

// The committed legacy file must keep decoding: old noise files stay
// loadable forever.
func TestDecodeLegacyV1Fixture(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy_v1.gob"))
	if err != nil {
		t.Fatal(err)
	}
	col, err := DecodeCollection(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	want := fixtureCollection()
	if !tensor.ShapeEq(col.Shape, want.Shape) || col.Len() != 2 {
		t.Fatalf("decoded shape %v, %d members", col.Shape, col.Len())
	}
	for i := range want.Members {
		if !tensor.Equal(col.Members[i], want.Members[i]) {
			t.Fatalf("member %d mismatch", i)
		}
	}
	if col.MeanInVivo() != 2.0 {
		t.Fatalf("MeanInVivo = %v, want 2", col.MeanInVivo())
	}
	// The mode-agnostic decoder must yield the same stored collection.
	src, err := DecodeNoiseSource(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := src.(*Collection); !ok || src.Mode() != ModeStored {
		t.Fatalf("DecodeNoiseSource = %T mode %q", src, src.Mode())
	}
}

// Plain additive collections must keep emitting the exact legacy bytes —
// new writers stay readable by old decoders.
func TestEncodeV1ByteCompatible(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy_v1.gob"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fixtureCollection().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Fatalf("additive encode is not byte-identical to the legacy format (%d vs %d bytes)", buf.Len(), len(raw))
	}
}

func TestDecodeCorruptInputs(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"garbage":   []byte("this is not a noise file at all, nor even gob"),
		"short":     {0x01, 0x02},
		"badmagic2": append([]byte(noiseMagicV2), []byte("trailing garbage not gob")...),
	}
	if raw, err := os.ReadFile(filepath.Join("testdata", "legacy_v1.gob")); err == nil {
		cases["truncated"] = raw[:len(raw)/2]
	} else {
		t.Fatal(err)
	}
	for name, data := range cases {
		if _, err := DecodeCollection(bytes.NewReader(data)); !errors.Is(err, ErrCollectionCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCollectionCorrupt", name, err)
		}
	}
}

// A structurally valid file with zero members used to decode into a
// collection whose Sample panics; it must now fail up front, typed.
func TestDecodeEmptyCollection(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(collectionWire{Shape: []int{2, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCollection(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCollectionEmpty) {
		t.Fatalf("err = %v, want ErrCollectionEmpty", err)
	}
}

func TestDecodeMemberShapeMismatch(t *testing.T) {
	var buf bytes.Buffer
	wire := collectionWire{Shape: []int{2, 2}, Members: []*tensor.Tensor{tensor.New(3)}}
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCollection(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCollectionCorrupt) {
		t.Fatalf("err = %v, want ErrCollectionCorrupt", err)
	}
}

func TestEncodeEmptyCollectionRefused(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Collection{}).Encode(&buf); !errors.Is(err, ErrCollectionEmpty) {
		t.Fatalf("err = %v, want ErrCollectionEmpty", err)
	}
}

// syntheticCollection builds a deterministic additive collection without
// any training.
func syntheticCollection(members int, mul bool) *Collection {
	rng := tensor.NewRNG(42)
	c := &Collection{}
	for i := 0; i < members; i++ {
		n := NewNoiseTensor([]int{3, 4}, 0, float64(i+1), rng)
		var w *NoiseTensor
		if mul {
			w = NewWeightTensor([]int{3, 4}, 1, 0.2, rng)
		}
		c.AddMember(n, w, float64(i))
	}
	return c
}

// Fitted payloads must round-trip byte-identically: encode → decode →
// encode reproduces the same file, and the decoded source draws the same
// noise for the same seed.
func TestFittedRoundTripByteIdentical(t *testing.T) {
	for _, mul := range []bool{false, true} {
		col := syntheticCollection(3, mul)
		fc, err := FitCollection(col, noisedist.Laplace)
		if err != nil {
			t.Fatal(err)
		}
		var first bytes.Buffer
		if err := fc.Encode(&first); err != nil {
			t.Fatal(err)
		}
		src, err := DecodeNoiseSource(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		got, ok := src.(*FittedCollection)
		if !ok || got.Mode() != fc.Mode() {
			t.Fatalf("decoded %T mode %q, want %q", src, src.Mode(), fc.Mode())
		}
		var second bytes.Buffer
		if err := got.Encode(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("mul=%v: fitted round-trip not byte-identical (%d vs %d bytes)", mul, first.Len(), second.Len())
		}
		a := fc.Draw(tensor.NewRNG(7))
		b := got.Draw(tensor.NewRNG(7))
		if !tensor.Equal(a.Noise, b.Noise) {
			t.Fatalf("mul=%v: decoded source draws different noise for the same seed", mul)
		}
		if mul && !tensor.Equal(a.Weight, b.Weight) {
			t.Fatal("decoded source draws different weights for the same seed")
		}
	}
}

// Multiplicative stored collections need the v2 format and must round-trip
// with their weights.
func TestStoredMultiplicativeRoundTrip(t *testing.T) {
	col := syntheticCollection(2, true)
	var buf bytes.Buffer
	if err := col.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(noiseMagicV2)) {
		t.Fatal("multiplicative collection must use the v2 format")
	}
	got, err := DecodeCollection(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Multiplicative() || got.Len() != 2 {
		t.Fatalf("decoded: mul=%v len=%d", got.Multiplicative(), got.Len())
	}
	for i := range col.Members {
		if !tensor.Equal(got.Members[i], col.Members[i]) || !tensor.Equal(got.Weights[i], col.Weights[i]) {
			t.Fatalf("member %d tensors mismatch", i)
		}
	}
	d1, d2 := col.Draw(tensor.NewRNG(5)), got.Draw(tensor.NewRNG(5))
	if d1.Member != d2.Member || !tensor.Equal(d1.Noise, d2.Noise) || !tensor.Equal(d1.Weight, d2.Weight) {
		t.Fatal("decoded collection draws differently")
	}
}

// DecodeCollection must not silently hand back a fitted source.
func TestDecodeCollectionRejectsFittedPayload(t *testing.T) {
	fc, err := FitCollection(syntheticCollection(2, false), noisedist.Gaussian)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCollection(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrNotStoredCollection) {
		t.Fatalf("err = %v, want ErrNotStoredCollection", err)
	}
}

func TestDecodeV2BadPayloads(t *testing.T) {
	encode := func(wire noiseWireV2) []byte {
		var buf bytes.Buffer
		if err := encodeV2(&buf, wire); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fc, err := FitCollection(syntheticCollection(2, false), noisedist.Laplace)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"unknown mode":           encode(noiseWireV2{Mode: "psychedelic", Shape: []int{2}}),
		"fitted-mul sans weight": encode(noiseWireV2{Mode: ModeFittedMul, Shape: []int{3, 4}, Noise: fc.Noise}),
		"fitted sans noise":      encode(noiseWireV2{Mode: ModeFitted, Shape: []int{3, 4}}),
		"fitted shape mismatch":  encode(noiseWireV2{Mode: ModeFitted, Shape: []int{5}, Noise: fc.Noise}),
		"stored empty":           encode(noiseWireV2{Mode: ModeStored, Shape: []int{2}}),
	}
	for name, data := range cases {
		_, err := DecodeNoiseSource(bytes.NewReader(data))
		if name == "stored empty" {
			if !errors.Is(err, ErrCollectionEmpty) {
				t.Fatalf("%s: err = %v, want ErrCollectionEmpty", name, err)
			}
			continue
		}
		if !errors.Is(err, ErrCollectionCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCollectionCorrupt", name, err)
		}
	}
}

type fakeSource struct{ NoiseSource }

func TestEncodeNoiseSourceDispatch(t *testing.T) {
	col := syntheticCollection(1, false)
	var buf bytes.Buffer
	if err := EncodeNoiseSource(&buf, col); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCollection(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	err := EncodeNoiseSource(&buf, fakeSource{})
	if err == nil || !strings.Contains(err.Error(), "cannot encode") {
		t.Fatalf("err = %v, want cannot-encode", err)
	}
}

// refitDigest is the SHA-256 of everything a stored collection refitted
// under kind holds — what a fitted deployment writes and every fitted draw
// is a function of. The fields are hashed, not the encoded file: gob numbers
// its types in the order a process first meets them, so a file's bytes
// depend on which tests ran before.
func refitDigest(t *testing.T, col *Collection, kind noisedist.Kind) string {
	t.Helper()
	fc, err := FitCollection(col, kind)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeNoiseSource(&buf, fc); err != nil {
		t.Fatal(err)
	}
	src, err := DecodeNoiseSource(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	put := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	fc = src.(*FittedCollection)
	put(fc.InVivo)
	for _, f := range []*noisedist.Fitted{fc.Noise, fc.Weight} {
		if f == nil {
			continue
		}
		put(int64(f.Kind))
		for _, d := range f.Shape {
			put(int64(d))
		}
		for i, c := range f.Comps {
			put([]float64{c.Loc, c.Scale})
			put(f.Sketches[i])
			put(f.Orders[i])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// The fit may change how it sorts, never what it produces: these digests
// were recorded with the three-sort fit (sort.Float64s twice and
// sort.SliceStable per member) and must not move.
func TestRefitPinned(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy_v1.gob"))
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := DecodeCollection(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	// A multiplicative collection at a realistic cut size, with ties.
	rng := tensor.NewRNG(23)
	big := &Collection{Shape: []int{8, 16, 16}}
	for i := 0; i < 3; i++ {
		n := rng.FillLaplace(tensor.New(8, 16, 16), 0, 2.5)
		w := rng.FillNormal(tensor.New(8, 16, 16), 1, 0.25)
		copy(n.Data()[100:], n.Data()[:50])
		big.Members, big.Weights, big.InVivo = append(big.Members, n), append(big.Weights, w), append(big.InVivo, float64(i))
	}
	for _, c := range []struct {
		name string
		col  *Collection
		kind noisedist.Kind
		want string
	}{
		{"legacy_v1 laplace", legacy, noisedist.Laplace, "fa4f55b2eefc457e79efd9e0e371ad47b19bd2bd2809e0b205413a8d5df1ce73"},
		{"legacy_v1 gaussian", legacy, noisedist.Gaussian, "a68666eccbbb0bd1d03311f64f7b38ed9f96e3546206ef864c6143ea60e2e54e"},
		{"multiplicative laplace", big, noisedist.Laplace, "2b751cd69862f24771c73c4878bd7b811f87153a99a3cebd16c007bd1b4d1f41"},
		{"multiplicative gaussian", big, noisedist.Gaussian, "c4312a119cba9309a8bc614e72badcb90a20cbfa66d1814e6ec29cf9bda273a6"},
	} {
		if got := refitDigest(t, c.col, c.kind); got != c.want {
			t.Errorf("%s: refit digest %s, want %s", c.name, got, c.want)
		}
	}
}
