package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"shredder/internal/noisedist"
	"shredder/internal/tensor"
	"shredder/internal/wire"
)

// fixtureCollection mirrors testdata/stored_fixture.bin exactly. The file is
// testdata/legacy_v1.gob — written by the first, gob encoder over these
// values — decoded at the last commit that read gob and written once with
// this encoder, so TestRefitPinned's digests run on the inputs they were
// recorded on.
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

func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func encoded(t testing.TB, src NoiseSource) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeNoiseSource(&buf, src); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The committed file decodes to the values it was written from, and those
// values encode to the committed bytes: the format has one spelling, and a
// change to it shows up here as a diff of a file.
func TestStoredFixtureDecodes(t *testing.T) {
	raw := readFixture(t, "stored_fixture.bin")
	col, err := DecodeCollection(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	want := fixtureCollection()
	if !tensor.ShapeEq(col.Shape, want.Shape) || col.Len() != 2 || col.Multiplicative() {
		t.Fatalf("decoded shape %v, %d members, %d weights", col.Shape, col.Len(), len(col.Weights))
	}
	for i := range want.Members {
		if !tensor.Equal(col.Members[i], want.Members[i]) || col.InVivo[i] != want.InVivo[i] {
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
	if got := encoded(t, want); !bytes.Equal(got, raw) {
		t.Fatalf("the fixture's values encode to %d bytes that are not the committed %d", len(got), len(raw))
	}
}

// A file of either gob format that came before — the bare stream, or the
// stream behind the /2 magic line — is refused with the typed error and the
// advice to make a new one, and nothing is allocated past the sniff: the
// read, and the error.
func TestOldGobNoiseFilesRefused(t *testing.T) {
	for _, name := range []string{"legacy_v1.gob", "legacy_v2_stored_mul.gob"} {
		raw := readFixture(t, name)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeNoiseSource(bytes.NewReader(raw))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCollectionCorrupt) || !strings.Contains(err.Error(), "format changed") || !strings.Contains(err.Error(), "train-noise") {
			t.Errorf("%s: err = %v, want ErrCollectionCorrupt naming the format change and train-noise", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(raw))+4<<10 {
			t.Errorf("%s: refusing %d bytes allocated %d", name, len(raw), grew)
		}
	}
}

func TestDecodeCorruptInputs(t *testing.T) {
	valid := readFixture(t, "stored_fixture.bin")
	cases := map[string][]byte{
		"empty":       {},
		"garbage":     []byte("this is not a noise file at all, nor even gob"),
		"short":       {0x01, 0x02},
		"magic alone": []byte(noiseMagic),
		"badmagic":    append([]byte(noiseMagic), []byte("trailing garbage, no fields")...),
		"truncated":   valid[:len(valid)/2],
		"trailing":    append(append([]byte(nil), valid...), 0),
	}
	for name, data := range cases {
		if _, err := DecodeCollection(bytes.NewReader(data)); !errors.Is(err, ErrCollectionCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCollectionCorrupt", name, err)
		}
	}
}

// le32 appends little-endian u32 fields: the tests' way to spell a file the
// encoder would refuse to write.
func le32(b []byte, vs ...uint32) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// noiseHeader is a noise file up to its mode's payload: magic, mode, rank
// and dimensions, in vivo values.
func noiseHeader(mode string, dims []uint32, inVivo ...float64) []byte {
	b := wire.AppendName([]byte(noiseMagic), mode)
	b = le32(le32(b, uint32(len(dims))), dims...)
	return wire.AppendFloats(le32(b, uint32(len(inVivo))), inVivo)
}

// A structurally valid file with zero members would decode into a
// collection whose Sample panics; it must fail up front, typed.
func TestDecodeEmptyCollection(t *testing.T) {
	file := le32(noiseHeader(ModeStored, []uint32{2, 2}), 0, 0)
	if _, err := DecodeCollection(bytes.NewReader(file)); !errors.Is(err, ErrCollectionEmpty) {
		t.Fatalf("err = %v, want ErrCollectionEmpty", err)
	}
}

// A member is as long as the shape says: a file whose one member carries
// three values under a [2 2] shape does not end where its fields do.
func TestDecodeMemberShapeMismatch(t *testing.T) {
	file := wire.AppendFloats(le32(noiseHeader(ModeStored, []uint32{2, 2}), 1), []float64{1, 2, 3})
	file = le32(file, 0)
	if _, err := DecodeCollection(bytes.NewReader(file)); !errors.Is(err, ErrCollectionCorrupt) {
		t.Fatalf("err = %v, want ErrCollectionCorrupt", err)
	}
}

// The defect at the noise-file boundary: a member, weight or in vivo value
// that is not a finite number used to decode cleanly — stored mode then
// served NaN activations and the refit sorted NaNs. It is refused at decode,
// refused at encode, and the fit returns its error.
func TestNonFiniteNoiseRefused(t *testing.T) {
	const marker = 12345.678
	for name, set := range map[string]func(c *Collection, v float64){
		"member":  func(c *Collection, v float64) { c.Members[1].Data()[5] = v },
		"weight":  func(c *Collection, v float64) { c.Weights[0].Data()[0] = v },
		"in vivo": func(c *Collection, v float64) { c.InVivo[1] = v },
	} {
		// Where the value sits in the file: encode it as a marker, find it.
		marked := syntheticCollection(2, true)
		set(marked, marker)
		file := encoded(t, marked)
		at := bytes.Index(file, wire.AppendFloats(nil, []float64{marker}))
		if at < 0 {
			t.Fatalf("%s: marker not found", name)
		}
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			binary.LittleEndian.PutUint64(file[at:], math.Float64bits(v))
			if _, err := DecodeNoiseSource(bytes.NewReader(file)); !errors.Is(err, ErrCollectionCorrupt) {
				t.Errorf("%s = %v: Decode error %v, want ErrCollectionCorrupt", name, v, err)
			}
			bad := syntheticCollection(2, true)
			set(bad, v)
			if err := bad.Encode(&bytes.Buffer{}); !errors.Is(err, ErrCollectionCorrupt) {
				t.Errorf("%s = %v: Encode error %v, want ErrCollectionCorrupt", name, v, err)
			}
			if _, err := FitCollection(bad, noisedist.Laplace); err == nil && name != "in vivo" {
				t.Errorf("%s = %v: FitCollection fitted it", name, v)
			}
		}
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
		a := fc.DrawInto(nil, tensor.NewRNG(7))
		b := got.DrawInto(nil, tensor.NewRNG(7))
		if !tensor.Equal(a.Noise, b.Noise) {
			t.Fatalf("mul=%v: decoded source draws different noise for the same seed", mul)
		}
		if mul && !tensor.Equal(a.Weight, b.Weight) {
			t.Fatal("decoded source draws different weights for the same seed")
		}
	}
}

// Multiplicative stored collections must round-trip with their weights.
func TestStoredMultiplicativeRoundTrip(t *testing.T) {
	col := syntheticCollection(2, true)
	var buf bytes.Buffer
	if err := col.Encode(&buf); err != nil {
		t.Fatal(err)
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
	d1, d2 := col.DrawInto(nil, tensor.NewRNG(5)), got.DrawInto(nil, tensor.NewRNG(5))
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

// fittedFile assembles a fitted noise file over shape [3 4] from parts, so
// a test can spell one the encoder refuses: dists are appended as given.
func fittedFile(mode string, dists ...[]byte) []byte {
	b := noiseHeader(mode, []uint32{3, 4})
	for _, d := range dists {
		b = append(b, d...)
	}
	return b
}

func TestDecodeBadPayloads(t *testing.T) {
	fc, err := FitCollection(syntheticCollection(2, false), noisedist.Laplace)
	if err != nil {
		t.Fatal(err)
	}
	noise := appendFitted(nil, fc.Noise)
	edited := func(edit func(f *noisedist.Fitted)) []byte {
		f := *fc.Noise
		f.Sketches = [][]float32{append([]float32(nil), f.Sketches[0]...), f.Sketches[1]}
		f.Orders = [][]int32{f.Orders[0], append([]int32(nil), f.Orders[1]...)}
		f.Comps = append([]noisedist.Component(nil), f.Comps...)
		edit(&f)
		return appendFitted(nil, &f)
	}
	cases := map[string][]byte{
		"unknown mode":           noiseHeader("psychedelic", []uint32{2}),
		"fitted-mul sans weight": fittedFile(ModeFittedMul, noise),
		"fitted sans noise":      fittedFile(ModeFitted),
		"fitted with two":        fittedFile(ModeFitted, noise, noise),
		"fitted shape mismatch":  append(noiseHeader(ModeFitted, []uint32{5}), noise...),
		"fitted zero components": fittedFile(ModeFitted, le32(nil, 0, 0)),
		"unknown kind":           fittedFile(ModeFitted, edited(func(f *noisedist.Fitted) { f.Kind = 9 })),
		"order not a permutation": fittedFile(ModeFitted, edited(func(f *noisedist.Fitted) {
			f.Orders[1][3] = f.Orders[1][4]
		})),
		"order out of range": fittedFile(ModeFitted, edited(func(f *noisedist.Fitted) { f.Orders[1][0] = -1 })),
		"sketch not monotone": fittedFile(ModeFitted, edited(func(f *noisedist.Fitted) {
			f.Sketches[0][2] = f.Sketches[0][0] - 1
		})),
		"sketch NaN":     fittedFile(ModeFitted, edited(func(f *noisedist.Fitted) { f.Sketches[0][1] = float32(math.NaN()) })),
		"sketch 1 knot":  fittedFile(ModeFitted, edited(func(f *noisedist.Fitted) { f.Sketches[0] = f.Sketches[0][:1] })),
		"negative scale": fittedFile(ModeFitted, edited(func(f *noisedist.Fitted) { f.Comps[0].Scale = -1 })),
		"NaN loc":        fittedFile(ModeFitted, edited(func(f *noisedist.Fitted) { f.Comps[1].Loc = math.NaN() })),
		"stored empty":   le32(noiseHeader(ModeStored, []uint32{2}), 0, 0),
		"stored one weight for two": wire.AppendFloats(le32(wire.AppendFloats(
			le32(noiseHeader(ModeStored, []uint32{1}), 2), []float64{1, 2}), 1), []float64{3}),
		"zero dimension": wire.AppendFloats(le32(noiseHeader(ModeStored, []uint32{0}), 1, 0), nil),
		"rank 9":         noiseHeader(ModeStored, []uint32{1, 1, 1, 1, 1, 1, 1, 1, 1}),
		"negative dim":   noiseHeader(ModeStored, []uint32{0xfffffffd, 4}),
		// (2³¹−1)⁴ wraps an int64; no product of the dimensions may stand in
		// for the count the file does carry.
		"wrapping dims": noiseHeader(ModeStored, []uint32{math.MaxInt32, math.MaxInt32, math.MaxInt32, math.MaxInt32}),
		// 2²⁹+1 members of one float64: the byte count wraps a u32 to 8.
		"count times size wraps": wire.AppendFloats(le32(noiseHeader(ModeStored, []uint32{1}), 1<<29+1), []float64{1}),
		"in vivo past the end":   le32(wire.AppendName([]byte(noiseMagic), ModeStored), 1, 1, 0xffffffff),
		"member one byte short": func() []byte {
			file := encoded(t, fixtureCollection())
			return file[:len(file)-5] // the weight count, and the member's last byte
		}(),
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

// A file cut anywhere — inside a field or on a boundary between two — is
// refused, typed; so is one with a byte after its last field.
func TestDecodeEveryTruncation(t *testing.T) {
	fitted, err := FitCollection(syntheticCollection(2, true), noisedist.Gaussian)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]NoiseSource{
		"stored": fixtureCollection(), "stored-mul": syntheticCollection(2, true), "fitted-mul": fitted,
	} {
		file := encoded(t, src)
		for n := 0; n < len(file); n++ {
			if _, err := DecodeNoiseSource(bytes.NewReader(file[:n])); !errors.Is(err, ErrCollectionCorrupt) && !errors.Is(err, ErrCollectionEmpty) {
				t.Fatalf("%s cut to %d of %d bytes: err = %v", name, n, len(file), err)
			}
		}
		if _, err := DecodeNoiseSource(bytes.NewReader(append(file, 0))); !errors.Is(err, ErrCollectionCorrupt) {
			t.Fatalf("%s with a trailing byte: err = %v", name, err)
		}
	}
}

// encode∘decode is the identity bit for bit — −0, denormals and the extreme
// exponents included — and what the decoder accepts re-encodes to the bytes
// it read.
func TestNoiseRoundTripBitExact(t *testing.T) {
	odd := []float64{math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, math.MaxFloat64, -math.MaxFloat64, 0x1.fffffffffffffp-1, -1.5, 3, 0x1p-1074 * 3, 1e-310}
	col := &Collection{Shape: []int{3, 4}, InVivo: []float64{math.Copysign(0, -1), math.MaxFloat64}}
	for i := 0; i < 2; i++ {
		m, w := tensor.New(3, 4), tensor.New(3, 4)
		for j := range odd {
			m.Data()[j], w.Data()[j] = odd[(j+i)%len(odd)], odd[(j+5*i+1)%len(odd)]
		}
		col.Members, col.Weights = append(col.Members, m), append(col.Weights, w)
	}
	// The fit sums magnitudes: ±MaxFloat64 would make its scale infinite, and a
	// sketch knot holds no more than a float32.
	tame := &Collection{Shape: col.Shape, InVivo: col.InVivo}
	for i := range col.Members {
		m, w := col.Members[i].Clone(), col.Weights[i].Clone()
		for j := range m.Data() {
			m.Data()[j], w.Data()[j] = math.Max(-0x1p100, math.Min(0x1p100, m.Data()[j])), math.Max(-0x1p100, math.Min(0x1p100, w.Data()[j]))
		}
		tame.Members, tame.Weights = append(tame.Members, m), append(tame.Weights, w)
	}
	fitted, err := FitCollection(tame, noisedist.Laplace)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]NoiseSource{"stored-mul": col, "fitted-mul": fitted} {
		file := encoded(t, src)
		got, err := DecodeNoiseSource(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again := encoded(t, got); !bytes.Equal(again, file) {
			t.Errorf("%s: decode then encode changed the file", name)
		}
		if c, ok := got.(*Collection); ok {
			for i := range col.Members {
				for j := range odd {
					if math.Float64bits(c.Members[i].Data()[j]) != math.Float64bits(col.Members[i].Data()[j]) ||
						math.Float64bits(c.Weights[i].Data()[j]) != math.Float64bits(col.Weights[i].Data()[j]) {
						t.Fatalf("stored member %d element %d changed bits", i, j)
					}
				}
				if math.Float64bits(c.InVivo[i]) != math.Float64bits(col.InVivo[i]) {
					t.Fatalf("in vivo %d changed bits", i)
				}
			}
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
// is a function of, after a trip through the file format. The digests were
// recorded over the fields, not the file's bytes, when the file was gob
// (whose bytes depended on which tests had run before), and so outlive it.
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
	legacy, err := DecodeCollection(bytes.NewReader(readFixture(t, "stored_fixture.bin")))
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

// BenchmarkDecodeNoiseSource times the noise-file read of a cold start at
// the sizes the benchmark's workloads load: LeNet's deep cut, and SVHN's
// shallow one stored and fitted.
func BenchmarkDecodeNoiseSource(b *testing.B) {
	collection := func(members, n int) *Collection {
		rng := tensor.NewRNG(37)
		c := &Collection{Shape: []int{n}}
		for i := 0; i < members; i++ {
			c.Members = append(c.Members, rng.FillLaplace(tensor.New(n), 0, 2.5))
			c.InVivo = append(c.InVivo, float64(i))
		}
		return c
	}
	fitted, err := FitCollection(collection(2, 16384), noisedist.Laplace)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		src  NoiseSource
	}{
		{"stored_4x120", collection(4, 120)},
		{"stored_2x16384", collection(2, 16384)},
		{"fitted_2x16384", fitted},
	} {
		var file bytes.Buffer
		if err := EncodeNoiseSource(&file, c.src); err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(file.Len()))
			for i := 0; i < b.N; i++ {
				if _, err := DecodeNoiseSource(bytes.NewReader(file.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
