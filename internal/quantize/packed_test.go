package quantize

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"shredder/internal/race"
	"shredder/internal/tensor"
)

// hostileValues are the inputs a quantizer's rounding and clipping can get
// wrong: NaN, both infinities, values far outside the range, the two
// endpoints, and every half point between adjacent levels with its two
// neighbouring floats — where a nearest-level rule that is off by one ulp
// picks the other level.
func hostileValues(s Scheme) []float64 {
	span := s.Hi - s.Lo
	vs := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), -math.MaxFloat64, math.MaxFloat64,
		s.Lo, s.Hi, s.Lo - span, s.Hi + span, s.Lo - 1e-300, 0, math.Copysign(0, -1),
	}
	step := s.step()
	for k := 0; k < min(s.Levels(), 40); k++ {
		half := s.Lo + (float64(k)+0.5)*step
		vs = append(vs, half, math.Nextafter(half, math.Inf(1)), math.Nextafter(half, math.Inf(-1)))
	}
	return vs
}

// TestFusedKernelsMatchReference pins the one-pass wire kernels to the
// two-step reference they replaced on the request path, for every width,
// lengths that end inside a byte, hostile values and a degenerate range:
// AppendPacked byte for byte to Pack(Quantize(x)), DequantizeInto bit for
// bit to Dequantize(Unpack(…)) and to Dequantize32(Unpack(…)).
func TestFusedKernelsMatchReference(t *testing.T) {
	rng := tensor.NewRNG(91)
	schemes := func(bits int) []Scheme {
		return []Scheme{
			{Bits: bits, Lo: -1.5, Hi: 2.25},
			{Bits: bits, Lo: 0, Hi: 1e-9},
			{Bits: bits, Lo: -1e18, Hi: 1e18},
			{Bits: bits, Lo: 0.75, Hi: 0.75}, // Lo == Hi: NewScheme refuses it, a literal does not
		}
	}
	for bits := 1; bits <= 16; bits++ {
		for _, s := range schemes(bits) {
			for _, n := range []int{0, 1, 3, 7, 8, 9, 17, 64, 257} {
				x := tensor.New(n)
				hostile := hostileValues(s)
				for i := range x.Data() {
					if i%2 == 0 {
						x.Data()[i] = hostile[rng.Intn(len(hostile))]
					} else {
						x.Data()[i] = s.Lo + (rng.Float64()*1.4-0.2)*(s.Hi-s.Lo)
					}
				}
				levels := s.Quantize(x)
				want := Pack(levels, bits)

				// Appended after a prefix into a buffer full of ones: every
				// byte of the payload must be written, none or-ed into.
				dirty := bytes.Repeat([]byte{0xff}, len(want)+8)
				got := s.AppendPacked(append(dirty[:0], "hdr"...), x.Data())
				if !bytes.Equal(got[:3], []byte("hdr")) || !bytes.Equal(got[3:], want) {
					t.Fatalf("bits=%d %+v n=%d: AppendPacked differs from Pack(Quantize(x))", bits, s, n)
				}
				if !bytes.Equal(s.QuantizePacked(x), want) {
					t.Fatalf("bits=%d %+v n=%d: QuantizePacked differs from Pack(Quantize(x))", bits, s, n)
				}

				unpacked, err := Unpack(want, bits, n)
				if err != nil {
					t.Fatal(err)
				}
				want64, want32 := s.Dequantize(unpacked, n), s.Dequantize32(unpacked, n)
				got64, got32 := make([]float64, n), make([]float32, n)
				if err := DequantizeInto(s, got64, want); err != nil {
					t.Fatal(err)
				}
				if err := DequantizeInto(s, got32, want); err != nil {
					t.Fatal(err)
				}
				for i := range got64 {
					if math.Float64bits(got64[i]) != math.Float64bits(want64.Data()[i]) {
						t.Fatalf("bits=%d %+v n=%d: float64 value %d is %v, reference %v", bits, s, n, i, got64[i], want64.Data()[i])
					}
					if math.Float32bits(got32[i]) != math.Float32bits(want32.Data()[i]) {
						t.Fatalf("bits=%d %+v n=%d: float32 value %d is %v, reference %v", bits, s, n, i, got32[i], want32.Data()[i])
					}
					// What the float32 plan used to be fed: the float64
					// reconstruction, narrowed.
					if math.Float32bits(got32[i]) != math.Float32bits(float32(want64.Data()[i])) {
						t.Fatalf("bits=%d %+v n=%d: float32 value %d is not the narrowed float64 one", bits, s, n, i)
					}
				}
				t64, err := s.DequantizePacked(want, n)
				if err != nil {
					t.Fatal(err)
				}
				t32, err := s.DequantizePacked32(want, n)
				if err != nil {
					t.Fatal(err)
				}
				for i := range got64 {
					if math.Float64bits(t64.Data()[i]) != math.Float64bits(got64[i]) || math.Float32bits(t32.Data()[i]) != math.Float32bits(got32[i]) {
						t.Fatalf("bits=%d %+v n=%d: DequantizePacked differs from DequantizeInto at %d", bits, s, n, i)
					}
				}
			}
		}
	}
}

// TestDequantizePackedRejects: what cannot be a payload of its shape is
// refused with a typed error before anything is sized from the shape.
func TestDequantizePackedRejects(t *testing.T) {
	s := Scheme{Bits: 8, Lo: 0, Hi: 1}
	for name, c := range map[string]struct {
		s      Scheme
		packed []byte
		shape  []int
		want   error
	}{
		"short":             {s, []byte{1}, []int{4, 4}, ErrBadPayload},
		"long":              {s, []byte{1, 2, 3, 4}, []int{2}, ErrBadPayload},
		"negative dim":      {s, []byte{1, 2}, []int{-1, -2}, ErrBadPayload},
		"volume overflows":  {s, []byte{1, 2}, []int{math.MaxInt64/2 + 1, 2, 2}, ErrBadPayload},
		"volume is huge":    {s, nil, []int{1 << 40, 1 << 20}, ErrBadPayload},
		"zero bits":         {Scheme{Bits: 0, Lo: 0, Hi: 1}, nil, []int{0}, ErrBadBits},
		"seventeen bits":    {Scheme{Bits: 17, Lo: 0, Hi: 1}, []byte{1, 2, 3}, []int{1}, ErrBadBits},
		"one bit too short": {Scheme{Bits: 1, Lo: 0, Hi: 1}, nil, []int{4}, ErrBadPayload},
	} {
		if _, err := c.s.DequantizePacked(c.packed, c.shape...); !errors.Is(err, c.want) {
			t.Errorf("%s: DequantizePacked error %v, want %v", name, err, c.want)
		}
		if _, err := c.s.DequantizePacked32(c.packed, c.shape...); !errors.Is(err, c.want) {
			t.Errorf("%s: DequantizePacked32 error %v, want %v", name, err, c.want)
		}
	}
	if err := DequantizeInto(s, make([]float32, 3), []byte{1, 2}); !errors.Is(err, ErrBadPayload) {
		t.Errorf("DequantizeInto with a short payload: error %v", err)
	}
	if out, err := s.DequantizePacked(nil, 0, 7); err != nil || out.Len() != 0 {
		t.Errorf("an empty payload of an empty shape is valid: %v", err)
	}
}

// TestFusedKernelsAllocateNothingWarm pins the append and into forms at zero
// allocations once the destination has held such a payload before.
func TestFusedKernelsAllocateNothingWarm(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	x := tensor.NewRNG(5).FillNormal(tensor.New(1, 6, 11, 11), 0, 1)
	for _, bits := range []int{3, 8, 16} {
		s, err := Fit(x, bits)
		if err != nil {
			t.Fatal(err)
		}
		buf := s.AppendPacked(nil, x.Data())
		if n := testing.AllocsPerRun(100, func() { buf = s.AppendPacked(buf[:0], x.Data()) }); n != 0 {
			t.Errorf("bits=%d: AppendPacked into a warm buffer: %v allocations", bits, n)
		}
		d64, d32 := make([]float64, x.Len()), make([]float32, x.Len())
		if n := testing.AllocsPerRun(100, func() {
			if DequantizeInto(s, d64, buf) != nil || DequantizeInto(s, d32, buf) != nil {
				t.Error("DequantizeInto refused its own payload")
			}
		}); n != 0 {
			t.Errorf("bits=%d: DequantizeInto: %v allocations", bits, n)
		}
	}
}

// FuzzDequantizePacked: a scheme, a shape and a payload taken from the wire
// either reconstruct — to exactly the reference's values, in a buffer no
// larger than the payload's bits could fill — or are refused with one of
// the package's typed errors. Nothing panics and nothing is sized from the
// shape before the payload has been held against it.
func FuzzDequantizePacked(f *testing.F) {
	f.Fuzz(func(t *testing.T, bits int, lo, hi float64, d0, d1, d2 int, packed []byte) {
		s := Scheme{Bits: bits, Lo: lo, Hi: hi}
		shape := []int{d0, d1, d2}
		got64, err := s.DequantizePacked(packed, shape...)
		got32, err32 := s.DequantizePacked32(packed, shape...)
		if (err == nil) != (err32 == nil) {
			t.Fatalf("float64 error %v, float32 error %v", err, err32)
		}
		if err != nil {
			if !errors.Is(err, ErrBadBits) && !errors.Is(err, ErrBadPayload) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		n := got64.Len()
		if n > 8*len(packed) || got32.Len() != n {
			t.Fatalf("%d payload bytes reconstructed to %d and %d values", len(packed), n, got32.Len())
		}
		levels, err := Unpack(packed, bits, n)
		if err != nil {
			t.Fatalf("the reference refuses what the fused kernel accepted: %v", err)
		}
		want := s.Dequantize(levels, shape...)
		for i, v := range got64.Data() {
			if math.Float64bits(v) != math.Float64bits(want.Data()[i]) {
				t.Fatalf("value %d is %v, reference %v", i, v, want.Data()[i])
			}
			if w := float32(want.Data()[i]); math.Float32bits(got32.Data()[i]) != math.Float32bits(w) {
				t.Fatalf("float32 value %d is %v, reference %v", i, got32.Data()[i], w)
			}
		}
	})
}
