package tensor

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"shredder/internal/race"
)

// codedCases are payloads for the dense forms, each with the form
// AppendDense must pick: a lone exponent code (a 1-bit code), a span of 31
// exponents with every code present, ±0 beside denormals, a ReLU-like
// activation, normals around the size where the length table starts to pay,
// and the values that send a payload raw.
func codedCases() []struct {
	name string
	data []float64
	form DenseForm
} {
	exp := func(e int) float64 { return math.Ldexp(1.5, e) } // biased exponent e+1023
	rng := NewRNG(11)
	span := make([]float64, 512)
	for i := range span {
		span[i] = rng.Normal(0, 1)
	}
	for k := range 31 {
		span[7*k] = exp(-15 + k) // codes 1…31, one value each
	}
	span[300] = 0 // and code 0
	signed := make([]float64, 256)
	for i := range signed {
		switch i % 4 {
		case 0:
			signed[i] = math.Copysign(0, -1)
		case 1:
			signed[i] = math.Float64frombits(uint64(rng.Intn(1 << 30))) // denormal
		case 2:
			signed[i] = -math.Float64frombits(uint64(i))
		default:
			signed[i] = 0
		}
	}
	relu := rng.FillNormal(New(4096), 0, 1).Data()
	for i, v := range relu {
		relu[i] = max(v, 0) + 0.25*rng.Normal(0, 1)*float64(i%2)
	}
	withInf := rng.FillNormal(New(600), 0, 1).Data()
	withInf[599] = math.Inf(-1)
	withNaN := rng.FillNormal(New(600), 0, 1).Data()
	withNaN[3] = math.NaN()
	wide := rng.FillNormal(New(600), 0, 1).Data()
	wide[0], wide[1] = exp(-15), exp(16)
	cases := []struct {
		name string
		data []float64
		form DenseForm
	}{
		{"lone code 0", make([]float64, 64), FormCodedNarrow},
		{"lone code 1", repeat([]float64{1.5, -1.25}, 40), FormCodedNarrow},
		{"lone code, 32 values", make([]float64, 32), FormNarrow},
		{"span of 31", span, FormCodedNarrow},
		{"±0 and denormals", signed, FormCodedNarrow},
		{"relu", relu, FormCodedNarrow},
		{"normals 16384", rng.FillNormal(New(16384), 0, 1).Data(), FormCodedNarrow},
		{"ten logits", rng.FillNormal(New(10), 0, 3).Data(), FormNarrow},
		{"Inf", withInf, FormRaw},
		{"NaN", withNaN, FormRaw},
		{"span of 32", wide, FormRaw},
		{"three", []float64{1, 2, 3}, FormRaw},
	}
	for n := 24; n <= 72; n += 6 {
		cases = append(cases, struct {
			name string
			data []float64
			form DenseForm
		}{fmt.Sprintf("%d normals", n), rng.FillNormal(New(n), 0, 1).Data(), 255}) // either narrow form
	}
	return cases
}

// TestCodedNarrowRoundTrip: every payload comes back bit for bit from the
// form AppendDense picked; that form is the one expected, never longer than
// the narrow form or raw floats, and written after b's bytes without
// touching them.
func TestCodedNarrowRoundTrip(t *testing.T) {
	var d HuffmanDecoder
	for _, c := range codedCases() {
		n := len(c.data)
		b, form := AppendDense([]byte("prefix"), c.data)
		if string(b[:6]) != "prefix" {
			t.Fatalf("%s: the prefix was overwritten", c.name)
		}
		b = b[6:]
		if form != c.form && !(c.form == 255 && form != FormRaw) {
			t.Errorf("%s: form %d, want %d", c.name, form, c.form)
		}
		if !DenseFits(form, n, len(b)) || len(b) > 8*n {
			t.Errorf("%s: %d bytes for %d values in form %d", c.name, len(b), n, form)
		}
		if narrow, ok := AppendNarrow(nil, c.data); ok && len(b) > len(narrow) {
			t.Errorf("%s: %d bytes where the narrow form takes %d", c.name, len(b), len(narrow))
		}
		got := make([]float64, n)
		if err := DecodeDense(got, b, form, &d); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i, v := range c.data {
			if math.Float64bits(got[i]) != math.Float64bits(v) {
				t.Fatalf("%s: value %d: %x came back as %x", c.name, i, math.Float64bits(v), math.Float64bits(got[i]))
			}
		}
	}
}

// TestCodedNarrowAllocatesNothingWarm pins the coded narrow form's encoder
// and decoder at zero allocations into a buffer and a decoder that have
// held such a payload before.
func TestCodedNarrowAllocatesNothingWarm(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	data := NewRNG(3).FillNormal(New(16384), 0, 1).Data()
	b, form := AppendDense(nil, data)
	if form != FormCodedNarrow {
		t.Fatalf("form %d, want the coded narrow form", form)
	}
	if n := testing.AllocsPerRun(20, func() { b, _ = AppendDense(b[:0], data) }); n != 0 {
		t.Errorf("a warm encode: %v allocations", n)
	}
	var d HuffmanDecoder
	dst := make([]float64, len(data))
	if n := testing.AllocsPerRun(20, func() {
		if err := DecodeCodedNarrow(dst, b, &d); err != nil {
			t.Error(err)
		}
	}); n != 0 {
		t.Errorf("a warm decode: %v allocations", n)
	}
}

// codedNarrowSeeds are the starting corpus of FuzzDecodeCodedNarrow: value
// counts with payloads that are good, cut short, or one field away from the
// one spelling AppendDense writes.
func codedNarrowSeeds() map[string]struct {
	n   int
	src []byte
} {
	good := func(data []float64) []byte {
		b, form := AppendDense(nil, data)
		if form != FormCodedNarrow {
			panic("seed does not take the coded narrow form")
		}
		return b
	}
	edit := func(b []byte, f func(b []byte)) []byte {
		b = append([]byte(nil), b...)
		f(b)
		return b
	}
	normals := good(NewRNG(5).FillNormal(New(77), 0, 1).Data())
	zeros := good(make([]float64, 41))
	ones := good(repeat([]float64{1}, 64))
	// Three codes of 1, 2 and 2 bits.
	three := good(append(append(repeat([]float64{1}, 40), repeat([]float64{2}, 12)...), repeat([]float64{4}, 8)...))
	table := func(b []byte) []byte { return b[len(b)-16:] }
	// The same values under a complete code of four 2-bit codes, with a
	// stream that decodes to code 1 sixty times: a lone code's counts build
	// a 1-bit code, not this one.
	notCanonical := append(append([]byte(nil), three[:2+6*60+(5*60+7)/8]...), repeat([]byte{0x55}, 15)...)
	notCanonical = append(notCanonical, 0x22, 0x22, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	return map[string]struct {
		n   int
		src []byte
	}{
		"normals":              {77, normals},
		"zeros":                {41, zeros},
		"ones":                 {64, ones},
		"three codes":          {60, three},
		"truncated":            {77, normals[:len(normals)-1]},
		"one byte more":        {77, append(append([]byte(nil), normals...), 0)},
		"narrow length":        {41, make([]byte, NarrowLen(41))},
		"emin 2, codes 0":      {41, edit(zeros, func(b []byte) { b[0] = 2 })},
		"emin 0":               {41, edit(zeros, func(b []byte) { b[0] = 0 })},
		"oversubscribed code":  {60, edit(three, func(b []byte) { table(b)[0] = 0x11 })},
		"incomplete code":      {60, edit(three, func(b []byte) { table(b)[1] = 0x02 })},
		"not its counts' code": {60, notCanonical},
		"code length 13":       {60, edit(three, func(b []byte) { table(b)[0] = 0xd0 })},
		"stream pad bit":       {41, edit(zeros, func(b []byte) { b[len(b)-17] |= 0x01 })},
		"tail pad bit":         {41, edit(zeros, func(b []byte) { b[2+6*41+(5*41+7)/8-1] |= 0x80 })},
	}
}

// FuzzDecodeCodedNarrow holds the decoder of the coded narrow form to its
// one spelling: bytes it accepts re-encode to themselves in that form; bytes
// it refuses leave dst as it was; either way a decoder that has decoded the
// payload once allocates nothing (counted outside the race detector).
func FuzzDecodeCodedNarrow(f *testing.F) {
	for _, s := range codedNarrowSeeds() {
		f.Add(uint16(s.n), s.src)
	}
	f.Fuzz(func(t *testing.T, n uint16, src []byte) {
		const sentinel = 0x7ff0000000c0ffee // a NaN no decode writes
		dst := make([]float64, n)
		for i := range dst {
			dst[i] = math.Float64frombits(sentinel)
		}
		var d HuffmanDecoder
		err := DecodeCodedNarrow(dst, src, &d)
		if err != nil {
			if err != ErrNarrow {
				t.Fatalf("refused with %v, want ErrNarrow", err)
			}
			for i, v := range dst {
				if math.Float64bits(v) != sentinel {
					t.Fatalf("a refused decode wrote value %d", i)
				}
			}
		} else if again, form := AppendDense(nil, dst); form != FormCodedNarrow || !bytes.Equal(again, src) {
			t.Fatalf("accepted %x, which re-encodes to %x (form %d)", src, again, form)
		}
		if allocs := testing.AllocsPerRun(10, func() { DecodeCodedNarrow(dst, src, &d) }); allocs != 0 && !race.Enabled {
			t.Fatalf("decoding allocates %v times", allocs)
		}
	})
}

// TestCodedNarrowSeedsRefused: every seed but the good ones is refused, so
// the corpus starts on each check of the decoder.
func TestCodedNarrowSeedsRefused(t *testing.T) {
	good := map[string]bool{"normals": true, "zeros": true, "ones": true, "three codes": true}
	for name, s := range codedNarrowSeeds() {
		err := DecodeCodedNarrow(make([]float64, s.n), s.src, new(HuffmanDecoder))
		if good[name] != (err == nil) {
			t.Errorf("%s: error %v", name, err)
		}
	}
}

// repeat is s, count times over.
func repeat[T any](s []T, count int) []T {
	var r []T
	for range count {
		r = append(r, s...)
	}
	return r
}
