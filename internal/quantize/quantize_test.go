package quantize

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"shredder/internal/tensor"
)

func TestNewSchemeValidation(t *testing.T) {
	cases := []struct {
		name    string
		bits    int
		lo, hi  float64
		wantErr error
	}{
		{"zero bits", 0, 0, 1, ErrBadBits},
		{"negative bits", -3, 0, 1, ErrBadBits},
		{"17 bits", 17, 0, 1, ErrBadBits},
		{"empty range", 8, 2, 2, ErrBadRange},
		{"inverted range", 8, 1, -1, ErrBadRange},
		{"nan lo", 8, math.NaN(), 1, ErrBadRange},
		{"nan hi", 8, 0, math.NaN(), ErrBadRange},
		{"one bit ok", 1, 0, 1, nil},
		{"sixteen bits ok", 16, -1, 1, nil},
	}
	for _, c := range cases {
		_, err := NewScheme(c.bits, c.lo, c.hi)
		if c.wantErr == nil {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if !errors.Is(err, c.wantErr) {
			t.Errorf("%s: error %v, want %v", c.name, err, c.wantErr)
		}
	}
	s, err := NewScheme(8, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Levels() != 256 {
		t.Fatalf("levels = %d", s.Levels())
	}
}

// TestRoundTripExtremes table-tests the quantize→dequantize round trip at
// the boundary bit widths and at extreme clipping ranges.
func TestRoundTripExtremes(t *testing.T) {
	cases := []struct {
		name   string
		bits   int
		lo, hi float64
	}{
		{"one bit unit", 1, 0, 1},
		{"one bit symmetric", 1, -3, 3},
		{"two bit tiny range", 2, -1e-12, 1e-12},
		{"eight bit huge range", 8, -1e18, 1e18},
		{"sixteen bit asymmetric", 16, -1e-6, 1e12},
		{"sixteen bit unit", 16, -1, 1},
	}
	rng := tensor.NewRNG(77)
	for _, c := range cases {
		s, err := NewScheme(c.bits, c.lo, c.hi)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		span := c.hi - c.lo
		x := rng.FillUniform(tensor.New(64), c.lo-0.1*span, c.hi+0.1*span)
		rt := s.RoundTrip(x)
		for i, v := range rt.Data() {
			if v < c.lo || v > c.hi {
				t.Fatalf("%s: reconstructed value %v outside [%v, %v]", c.name, v, c.lo, c.hi)
			}
			in := x.Data()[i]
			if in >= c.lo && in <= c.hi {
				if err := math.Abs(v - in); err > s.step()/2*(1+1e-9) {
					t.Fatalf("%s: in-range error %v exceeds half a step %v", c.name, err, s.step()/2)
				}
			}
		}
		if c.bits == 1 {
			// One bit means exactly two representable values.
			for i, v := range rt.Data() {
				if v != c.lo && v != c.hi {
					t.Fatalf("%s: elem %d = %v, want %v or %v", c.name, i, v, c.lo, c.hi)
				}
			}
		}
		// The packed wire representation must survive the same trip.
		packed := s.QuantizePacked(x)
		back, err := s.DequantizePacked(packed, 64)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !tensor.Equal(back, rt) {
			t.Fatalf("%s: packed round trip diverges from dense round trip", c.name)
		}
	}
}

// TestDequantize32MatchesFloat64 checks the float32 dequantization paths
// are the float32 rounding of the float64 reconstruction, elementwise.
func TestDequantize32MatchesFloat64(t *testing.T) {
	rng := tensor.NewRNG(78)
	for _, bits := range []int{1, 4, 8, 16} {
		s, err := NewScheme(bits, -2.5, 3.25)
		if err != nil {
			t.Fatal(err)
		}
		x := rng.FillNormal(tensor.New(5, 7), 0, 2)
		levels := s.Quantize(x)
		want := s.Dequantize(levels, 5, 7)
		got := s.Dequantize32(levels, 5, 7)
		if !tensor.ShapeEq(got.Shape(), want.Shape()) {
			t.Fatalf("bits=%d: shape %v want %v", bits, got.Shape(), want.Shape())
		}
		for i, v := range got.Data() {
			if v != float32(want.Data()[i]) {
				t.Fatalf("bits=%d: elem %d = %v, want float32(%v)", bits, i, v, want.Data()[i])
			}
		}
		gotP, err := s.DequantizePacked32(s.QuantizePacked(x), 5, 7)
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		for i, v := range gotP.Data() {
			if v != got.Data()[i] {
				t.Fatalf("bits=%d: packed f32 path diverges at %d", bits, i)
			}
		}
	}
	s8, _ := NewScheme(8, 0, 1)
	if _, err := s8.DequantizePacked32([]byte{1}, 4, 4); err == nil {
		t.Fatal("short packed payload must be rejected by DequantizePacked32")
	}
}

func TestRoundTripWithinMaxError(t *testing.T) {
	s, _ := NewScheme(8, -2, 2)
	rng := tensor.NewRNG(1)
	x := rng.FillUniform(tensor.New(1000), -2, 2)
	rt := s.RoundTrip(x)
	maxErr := s.step() / 2
	for i, v := range x.Data() {
		if math.Abs(rt.Data()[i]-v) > maxErr+1e-12 {
			t.Fatalf("value %v reconstructed as %v (max err %v)", v, rt.Data()[i], maxErr)
		}
	}
}

func TestClippingOutOfRange(t *testing.T) {
	s, _ := NewScheme(4, 0, 1)
	x := tensor.From([]float64{-5, 0.5, 9}, 3)
	rt := s.RoundTrip(x)
	if rt.At(0) != 0 || rt.At(2) != 1 {
		t.Fatalf("clipping failed: %v", rt)
	}
}

func TestEndpointsExactlyRepresentable(t *testing.T) {
	s, _ := NewScheme(3, -1, 1)
	x := tensor.From([]float64{-1, 1}, 2)
	rt := s.RoundTrip(x)
	if rt.At(0) != -1 || rt.At(1) != 1 {
		t.Fatalf("endpoints = %v", rt)
	}
}

// roundTripMSE returns the mean squared reconstruction error of a round trip.
func roundTripMSE(s Scheme, x *tensor.Tensor) float64 {
	d := tensor.Sub(s.RoundTrip(x), x)
	return d.SqSum() / float64(d.Len())
}

func TestMoreBitsLessError(t *testing.T) {
	rng := tensor.NewRNG(2)
	x := rng.FillNormal(tensor.New(5000), 0, 1)
	prev := math.Inf(1)
	for _, bits := range []int{2, 4, 8, 12} {
		s, _ := NewScheme(bits, -4, 4)
		mse := roundTripMSE(s, x)
		if mse >= prev {
			t.Fatalf("%d bits MSE %v not below previous %v", bits, mse, prev)
		}
		prev = mse
	}
}

func TestFitCoversSamples(t *testing.T) {
	rng := tensor.NewRNG(3)
	x := rng.FillNormal(tensor.New(10000), 5, 2)
	s, err := Fit(x, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.Lo > x.Min()+1e-9 && s.Lo > 5-4*2-0.5 {
		t.Fatalf("fit lo %v does not cover sample mass", s.Lo)
	}
	// Reconstruction error should be small relative to the data scale.
	if mse := roundTripMSE(s, x); mse > 0.01 {
		t.Fatalf("8-bit fit MSE %v too large", mse)
	}
}

func TestFitConstantInput(t *testing.T) {
	x := tensor.New(100).Fill(3)
	s, err := Fit(x, 8)
	if err != nil {
		t.Fatal(err)
	}
	rt := s.RoundTrip(x)
	if math.Abs(rt.At(0)-3) > 1e-6 {
		t.Fatalf("constant reconstruction = %v", rt.At(0))
	}
}

func TestWireBytes(t *testing.T) {
	s, _ := NewScheme(8, 0, 1)
	if got := s.WireBytes(100); got != 100 {
		t.Fatalf("8-bit WireBytes(100) = %d", got)
	}
	s4, _ := NewScheme(4, 0, 1)
	if got := s4.WireBytes(100); got != 50 {
		t.Fatalf("4-bit WireBytes(100) = %d", got)
	}
	s3, _ := NewScheme(3, 0, 1)
	if got := s3.WireBytes(3); got != 2 { // 9 bits → 2 bytes
		t.Fatalf("3-bit WireBytes(3) = %d", got)
	}
}

func TestPropertyQuantizeIdempotent(t *testing.T) {
	// Quantizing an already-quantized tensor is the identity.
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		s, _ := NewScheme(2+rng.Intn(10), -3, 3)
		x := rng.FillNormal(tensor.New(64), 0, 1)
		once := s.RoundTrip(x)
		twice := s.RoundTrip(once)
		return tensor.AllClose(once, twice, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDequantizeInRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		s, _ := NewScheme(2+rng.Intn(6), -1, 2)
		x := rng.FillNormal(tensor.New(32), 0, 5) // mostly out of range
		rt := s.RoundTrip(x)
		return rt.Min() >= s.Lo-1e-12 && rt.Max() <= s.Hi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Bit packing — the wire format splitrt ships.
// ---------------------------------------------------------------------------

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(21)
	for bits := 1; bits <= 16; bits++ {
		for _, n := range []int{0, 1, 3, 8, 17, 64} {
			levels := make([]uint16, n)
			for i := range levels {
				levels[i] = uint16(rng.Intn(1 << bits))
			}
			packed := Pack(levels, bits)
			if want := (n*bits + 7) / 8; len(packed) != want {
				t.Fatalf("bits=%d n=%d: packed %d bytes, want %d", bits, n, len(packed), want)
			}
			got, err := Unpack(packed, bits, n)
			if err != nil {
				t.Fatalf("bits=%d n=%d: %v", bits, n, err)
			}
			for i := range levels {
				if got[i] != levels[i] {
					t.Fatalf("bits=%d n=%d: level %d round-tripped %d -> %d", bits, n, i, levels[i], got[i])
				}
			}
		}
	}
}

func TestPackedSizeMatchesWireBytes(t *testing.T) {
	rng := tensor.NewRNG(22)
	for _, bits := range []int{2, 5, 8, 11, 16} {
		s, err := NewScheme(bits, -1, 1)
		if err != nil {
			t.Fatal(err)
		}
		x := rng.FillNormal(tensor.New(257), 0, 1)
		packed := s.QuantizePacked(x)
		if int64(len(packed)) != s.WireBytes(x.Len()) {
			t.Fatalf("bits=%d: packed %d bytes, WireBytes says %d", bits, len(packed), s.WireBytes(x.Len()))
		}
		rt, err := s.DequantizePacked(packed, 257)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.AllClose(rt, s.RoundTrip(x), 0) {
			t.Fatalf("bits=%d: packed round trip diverges from dense round trip", bits)
		}
	}
}

func TestUnpackRejectsMalformedPayloads(t *testing.T) {
	if _, err := Unpack([]byte{1, 2, 3}, 8, 16); err == nil {
		t.Fatal("short payload must be rejected")
	}
	if _, err := Unpack([]byte{1, 2, 3, 4}, 8, 2); err == nil {
		t.Fatal("oversized payload must be rejected")
	}
	if _, err := Unpack(nil, 0, 4); err == nil {
		t.Fatal("bits out of range must be rejected")
	}
	if _, err := Unpack(nil, 1, 4); err == nil {
		t.Fatal("short one-bit payload must be rejected")
	}
	if _, err := Unpack(nil, 8, -1); err == nil {
		t.Fatal("negative count must be rejected")
	}
	if _, err := Unpack(nil, 8, 0); err != nil {
		t.Fatalf("empty payload with zero count is valid: %v", err)
	}
}
