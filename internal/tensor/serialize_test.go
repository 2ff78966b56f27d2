package tensor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"shredder/internal/race"
)

// The float codec the wire and the artifacts share is the identity bit for
// bit: −0, denormals, the extreme exponents, NaN payloads.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -0x1p-1060, 0x1p-1022,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff8dead0000beef), 1.5}
	vals = append(vals, NewRNG(21).FillNormal(New(3, 4, 5), 0, 1).Data()...)
	b := AppendFloats([]byte("prefix"), vals)
	if len(b) != 6+8*len(vals) || string(b[:6]) != "prefix" {
		t.Fatalf("AppendFloats wrote %d bytes for %d values", len(b)-6, len(vals))
	}
	got := make([]float64, len(vals))
	DecodeFloats(got, b[6:])
	for i := range vals {
		if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
			t.Fatalf("value %d: %x came back as %x", i, math.Float64bits(vals[i]), math.Float64bits(got[i]))
		}
	}
}

func TestDecodeGarbageFails(t *testing.T) {
	const magic = "test-artifact/1\n"
	for name, file := range map[string][]byte{
		"empty": {}, "garbage": {1, 2, 3}, "magic cut short": []byte(magic[:7]), "another magic": []byte("test-artifact/2\nrest"),
	} {
		r := NewReader(file, magic)
		if !errors.Is(r.Err(), ErrArtifact) || !errors.Is(r.Close(), ErrArtifact) {
			t.Errorf("%s: Err = %v", name, r.Err())
		}
		if r.U32() != 0 || r.F64() != 0 || r.Name() != nil || r.Take(1, 1) != nil || r.Count(1, 8) != 0 {
			t.Errorf("%s: a failed Reader still yields fields", name)
		}
	}
}

// Every declared extent meets the bytes present in Take, before a product is
// formed: a count that overflows, or wraps round to what the file does
// carry, fails like one that is simply too long.
func TestReaderMatchesExtentsAgainstBytesPresent(t *testing.T) {
	const magic = "m\n"
	file := func(fields ...byte) []byte { return append([]byte(magic), fields...) }
	u32 := func(v uint32) []byte { return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)} }

	r := NewReader(file(append(u32(3), 1, 2, 3, 4, 5, 6)...), magic)
	if n := r.Count(1, 2); n != 3 || r.Err() != nil {
		t.Fatalf("Count(1, 2) = %d, %v; six bytes follow three items of two", n, r.Err())
	}
	if p := r.Take(3, 2); len(p) != 6 || r.Close() != nil {
		t.Fatalf("Take(3, 2) = %v, Close %v", p, r.Close())
	}

	for name, c := range map[string]struct {
		fields []byte
		read   func(r *Reader)
	}{
		"count past the end":   {append(u32(4), 1, 2, 3, 4, 5, 6), func(r *Reader) { r.Count(1, 2) }},
		"count wraps to 8":     {append(u32(1<<29+1), 1, 2, 3, 4, 5, 6, 7, 8), func(r *Reader) { r.Count(1, 8) }},
		"record overflows int": {append(u32(1), 1, 2, 3, 4, 5, 6, 7, 8), func(r *Reader) { r.Count(math.MaxInt/2, 8) }},
		"take overflows int":   {[]byte{1, 2, 3, 4}, func(r *Reader) { r.Take(math.MaxInt/2, 4) }},
		"take negative":        {[]byte{1, 2, 3, 4}, func(r *Reader) { r.Take(-1, 4) }},
		"one byte short":       {[]byte{1, 2, 3}, func(r *Reader) { r.U32() }},
		"name past the end":    {[]byte{5, 0, 'a', 'b'}, func(r *Reader) { r.Name() }},
		"rank above the limit": {append(u32(MaxRank+1), make([]byte, 64)...), func(r *Reader) { r.Shape() }},
		"dims past the end":    {append(u32(2), u32(3)...), func(r *Reader) { r.Shape() }},
		"negative dimension":   {append(u32(1), u32(0xffffffff)...), func(r *Reader) { r.Shape() }},
		"volume wraps": {bytes.Join([][]byte{u32(4), u32(math.MaxInt32), u32(math.MaxInt32), u32(math.MaxInt32), u32(math.MaxInt32)}, nil),
			func(r *Reader) { r.Shape() }},
		"trailing byte": {append(u32(7), 0), func(r *Reader) { r.U32() }},
	} {
		r := NewReader(file(c.fields...), magic)
		c.read(r)
		if err := r.Close(); !errors.Is(err, ErrArtifact) {
			t.Errorf("%s: Close = %v, want ErrArtifact", name, err)
		}
	}

	r = NewReader(AppendShape(AppendName([]byte(magic), "conv0.w"), []int{2, 0, 5}), magic)
	name := string(r.Name())
	shape, vol := r.Shape()
	if err := r.Close(); err != nil || name != "conv0.w" || !ShapeEq(shape, []int{2, 0, 5}) || vol != 0 {
		t.Fatalf("read %q %v (volume %d), %v", name, shape, vol, err)
	}
}

// slowReader hands out one byte at a time and knows no length.
type slowReader struct{ b []byte }

func (s *slowReader) Read(p []byte) (int, error) {
	if len(s.b) == 0 {
		return 0, io.EOF
	}
	p[0], s.b = s.b[0], s.b[1:]
	return 1, nil
}

// lyingReader reports a length that is not what it holds.
type lyingReader struct {
	slowReader
	claim int
}

func (l *lyingReader) Len() int { return l.claim }

func TestReadAll(t *testing.T) {
	want := NewRNG(3).FillNormal(New(700), 0, 1)
	file := AppendFloats(nil, want.Data())
	for name, r := range map[string]io.Reader{
		"bytes.Reader": bytes.NewReader(file),
		"bytes.Buffer": bytes.NewBuffer(append([]byte(nil), file...)),
		"no length":    &slowReader{file},
		"claims less":  &lyingReader{slowReader{file}, 10},
		"claims more":  &lyingReader{slowReader{file}, 1 << 20},
	} {
		got, err := ReadAll(r)
		if err != nil || !bytes.Equal(got, file) {
			t.Errorf("%s: read %d bytes of %d, %v", name, len(got), len(file), err)
		}
	}
	if got, err := ReadAll(bytes.NewReader(nil)); err != nil || len(got) != 0 {
		t.Errorf("empty reader: %d bytes, %v", len(got), err)
	}
}

// encodeDense is what the wire does with a dense payload: the narrow form
// when AppendNarrow takes it, raw floats otherwise.
func encodeDense(data []float64) (b []byte, narrow bool) {
	if b, narrow = AppendNarrow(nil, data); narrow {
		return b, true
	}
	return AppendFloats(nil, data), false
}

// TestNarrowRoundTrip: every payload comes back bit for bit, in whichever
// form the encoder chose, and the form chosen is never longer than raw. The
// narrow form holds ±0, denormals and MaxFloat64, and exponents spanning 31
// values; it gives way for a span of 32, for Inf and NaN, and below four
// values.
func TestNarrowRoundTrip(t *testing.T) {
	denorm := math.SmallestNonzeroFloat64
	exp := func(e int) float64 { return math.Ldexp(1.5, e) } // biased exponent e+1023
	cases := []struct {
		name   string
		data   []float64
		narrow bool
	}{
		{"zeros and denormals", []float64{0, math.Copysign(0, -1), denorm, -denorm, 0x1.fffffffffffffp-1023, 0}, true},
		{"denormals beside normals", []float64{denorm, 1, -0.75, math.Copysign(0, -1), 0x1p-20}, true},
		{"top exponents", []float64{math.MaxFloat64, -math.MaxFloat64, exp(1023 - 30), 0, 0x1.0000000000001p1000}, true},
		{"MaxFloat64 alone", []float64{math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64}, false},
		{"span of 31 exponents", []float64{exp(-15), exp(15), -exp(0), exp(-15), 0}, true},
		{"span of 32 exponents", []float64{exp(-15), exp(16), -exp(0), exp(-15), 0}, false},
		{"bottom span of 31", []float64{0x1p-1022, exp(-1022 + 30), -denorm, 0}, true},
		{"Inf", []float64{1, 2, math.Inf(1), 3, 4}, false},
		{"NaN", []float64{1, 2, 3, math.Float64frombits(0x7ff8dead0000beef), 4}, false},
	}
	rng := NewRNG(7)
	for n := 0; n <= 9; n++ {
		cases = append(cases, struct {
			name   string
			data   []float64
			narrow bool
		}{fmt.Sprintf("%d normals", n), rng.FillNormal(New(n), 0, 1).Data(), n >= 4})
	}
	for _, c := range cases {
		b, narrow := encodeDense(c.data)
		if narrow != c.narrow {
			t.Errorf("%s: narrow form taken %v, want %v", c.name, narrow, c.narrow)
		}
		if len(b) > 8*len(c.data) || (narrow && len(b) != NarrowLen(len(c.data))) {
			t.Errorf("%s: %d bytes for %d values", c.name, len(b), len(c.data))
		}
		got := make([]float64, len(c.data))
		if narrow {
			if err := DecodeNarrow(got, b); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		} else {
			DecodeFloats(got, b)
		}
		for i, v := range c.data {
			if math.Float64bits(got[i]) != math.Float64bits(v) {
				t.Fatalf("%s: value %d: %x came back as %x", c.name, i, math.Float64bits(v), math.Float64bits(got[i]))
			}
		}
	}
}

// narrowSeeds are the starting corpus of FuzzDecodeNarrow: value counts
// with payloads that are good, cut short, or one field away from the one
// spelling AppendNarrow writes.
func narrowSeeds() map[string]struct {
	n   int
	src []byte
} {
	good := func(data []float64) []byte {
		b, ok := AppendNarrow(nil, data)
		if !ok {
			panic("seed does not take the narrow form")
		}
		return b
	}
	edit := func(b []byte, f func(b []byte)) []byte {
		b = append([]byte(nil), b...)
		f(b)
		return b
	}
	normals := good(NewRNG(5).FillNormal(New(9), 0, 1).Data())
	zeros := good(make([]float64, 5))
	return map[string]struct {
		n   int
		src []byte
	}{
		"normals":    {9, normals},
		"zeros":      {5, zeros},
		"four":       {4, good([]float64{1, -2, 0, 3e-5})},
		"top":        {6, good([]float64{math.MaxFloat64, 0x1p993, -1e300, 0, 5e-324, 1e299})},
		"truncated":  {9, normals[:len(normals)-1]},
		"three":      {3, make([]byte, NarrowLen(3))},
		"emin lower": {5, edit(zeros, func(b []byte) { b[0] = 2 })},
		"emin 0":     {5, edit(zeros, func(b []byte) { b[0] = 0 })},
		"emin top":   {5, edit(zeros, func(b []byte) { binary.LittleEndian.PutUint16(b, narrowMaxEmin+1) })},
		"pad bit":    {5, edit(zeros, func(b []byte) { b[len(b)-1] |= 0x80 })},
	}
}

// FuzzDecodeNarrow holds the decoder of the narrow form to its one spelling:
// bytes it accepts re-encode to themselves; bytes it refuses leave dst as it
// was; either way it allocates nothing (counted outside the race detector).
func FuzzDecodeNarrow(f *testing.F) {
	for _, s := range narrowSeeds() {
		f.Add(uint8(s.n), s.src)
	}
	f.Fuzz(func(t *testing.T, n uint8, src []byte) {
		const sentinel = 0x7ff0000000c0ffee // a NaN no decode writes
		dst := make([]float64, n)
		for i := range dst {
			dst[i] = math.Float64frombits(sentinel)
		}
		err := DecodeNarrow(dst, src)
		if err != nil {
			if err != ErrNarrow {
				t.Fatalf("refused with %v, want ErrNarrow", err)
			}
			for i, v := range dst {
				if math.Float64bits(v) != sentinel {
					t.Fatalf("a refused decode wrote value %d", i)
				}
			}
		} else if again, ok := AppendNarrow(nil, dst); !ok || !bytes.Equal(again, src) {
			t.Fatalf("accepted %x, which re-encodes to %x (narrow %v)", src, again, ok)
		}
		if allocs := testing.AllocsPerRun(10, func() { DecodeNarrow(dst, src) }); allocs != 0 && !race.Enabled {
			t.Fatalf("decoding allocates %v times", allocs)
		}
	})
}

// BenchmarkNarrowFloats times the narrow form's encoder and decoder on
// 16 384 normal values — the volume of cloud_svhn's conv0 activation — beside
// the coded narrow form's (AppendDense, which also counts and picks) and raw
// floats, into warm buffers (0 allocations). The budgets, at -cpu 1 on a
// 2-vCPU x86-64 host: narrow encode plus decode within 110 µs; coded within
// 60 µs more than narrow.
//
//	go test ./internal/tensor -run '^$' -bench BenchmarkNarrowFloats -benchmem -cpu 1
func BenchmarkNarrowFloats(b *testing.B) {
	data := NewRNG(1).FillNormal(New(16384), 0, 1).Data()
	dst := make([]float64, len(data))
	narrow, ok := AppendNarrow(nil, data)
	if !ok {
		b.Fatal("payload does not take the narrow form")
	}
	coded, form := AppendDense(nil, data)
	if form != FormCodedNarrow {
		b.Fatal("payload does not take the coded narrow form")
	}
	raw := AppendFloats(nil, data)
	buf := make([]byte, 0, len(raw)+8)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = AppendNarrow(buf[:0], data)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := DecodeNarrow(dst, narrow); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode-coded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = AppendDense(buf[:0], data)
		}
	})
	var d HuffmanDecoder
	b.Run("decode-coded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := DecodeCodedNarrow(dst, coded, &d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode-raw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = AppendFloats(buf[:0], data)
		}
	})
	b.Run("decode-raw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			DecodeFloats(dst, raw)
		}
	})
}
