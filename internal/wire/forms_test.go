package wire_test

// The property harness of every lossless stage, keyed by a form byte: the
// three dense forms under their DenseForm, and the q8 coded stage, stored or
// coded, under formQ8. check holds any bytes to the properties; TestForms
// feeds it what the encoders write, FuzzDecode what the fuzzer makes of the
// seeds. The package is external so that the q8 seeds can be built by
// quantize.Fit, as the edge builds them.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"shredder/internal/quantize"
	"shredder/internal/race"
	"shredder/internal/tensor"
	"shredder/internal/wire"
)

// formQ8 keys the q8 coded stage, whose payload leads with a form byte of
// its own, q8Stored or q8Coded, and has q8Header bytes of form byte and
// length table before a code stream (DESIGN §5j). narrowMaxEmin is the
// narrow form's largest emin, whose top code names exponent 0x7FE.
// maxValues bounds the dense values the harness allocates for.
const (
	formQ8, q8Stored, q8Coded, q8Header = 3, 0, 1, 1 + 256/2
	narrowMaxEmin                       = 0x7FE - 30
	maxValues                           = 1 << 16
)

// check holds src, a payload of n values in form (of n packed bytes under
// formQ8), to what every stage keeps, and returns what it decodes to — a
// dense payload's values as raw words — and whether it was accepted:
//   - accepted bytes re-encode to themselves; for formQ8, whose payload has
//     more than one spelling, decode∘encode∘decode = decode instead;
//   - a refusal is the stage's typed error and leaves the destination as it
//     was;
//   - a warm decode allocates nothing (counted outside the race detector).
//
// A dense payload DenseFits refuses is one no receiver decodes: the raw form
// has no refusal of its own, so for it there is nothing to check.
func check(t testing.TB, form byte, n int, src []byte) ([]byte, bool) {
	t.Helper()
	var d wire.HuffmanDecoder
	if form == formQ8 {
		return checkCoded(t, &d, n, src)
	}
	f := wire.DenseForm(form)
	if n < 0 || n > maxValues || (f == wire.FormRaw && !wire.DenseFits(f, n, len(src))) {
		return nil, false
	}
	const sentinel = 0x7ff0000000c0ffee // a NaN no decode writes
	dst := make([]float64, n)
	for i := range dst {
		dst[i] = math.Float64frombits(sentinel)
	}
	err := wire.DecodeDense(dst, src, f, &d)
	if err != nil {
		if err != wire.ErrNarrow {
			t.Fatalf("form %d: refused with %v, want ErrNarrow", f, err)
		}
		for i, v := range dst {
			if math.Float64bits(v) != sentinel {
				t.Fatalf("form %d: a refused decode wrote value %d", f, i)
			}
		}
	} else if again := encodeAs(f, dst); !bytes.Equal(again, src) {
		t.Fatalf("form %d: accepted %x, which re-encodes to %x", f, src, again)
	}
	if allocs := testing.AllocsPerRun(10, func() { wire.DecodeDense(dst, src, f, &d) }); allocs != 0 && !race.Enabled {
		t.Fatalf("form %d: decoding allocates %v times", f, allocs)
	}
	if err != nil {
		return nil, false
	}
	return wire.AppendFloats(nil, dst), true
}

// encodeAs is data in form, nil when the encoder would not write that form.
func encodeAs(form wire.DenseForm, data []float64) []byte {
	switch form {
	case wire.FormNarrow:
		b, _ := wire.AppendNarrow(nil, data)
		return b
	case wire.FormCodedNarrow:
		if b, f := wire.AppendDense(nil, data); f == form {
			return b
		}
		return nil
	}
	return wire.AppendFloats(nil, data)
}

// checkCoded is check for the q8 coded stage: any bytes, with any packed
// length claimed for them, either decode — into no more than the bytes' bits
// can hold, sized only after that bound was checked — or are refused with
// ErrCoded. CheckCoded refuses nothing the decoder takes.
func checkCoded(t testing.TB, d *wire.HuffmanDecoder, n int, src []byte) ([]byte, bool) {
	checked := wire.CheckCoded(src, n)
	got, err := wire.AppendDecoded(d, []byte("kept"), src, n)
	if err != nil {
		if !errors.Is(err, wire.ErrCoded) {
			t.Fatalf("q8: untyped error %v", err)
		}
		if string(got) != "kept" {
			t.Fatalf("q8: a refused payload left %q in dst", got)
		}
		return nil, false
	}
	if checked != nil {
		t.Fatalf("q8: decoded what CheckCoded refuses: %v", checked)
	}
	if got = got[4:]; len(got) != n || n > 8*len(src) {
		t.Fatalf("q8: %d coded bytes decoded to %d, %d claimed", len(src), len(got), n)
	}
	again, err := wire.AppendDecoded(new(wire.HuffmanDecoder), nil, wire.AppendCoded(nil, got), n)
	if err != nil || !bytes.Equal(again, got) {
		t.Fatalf("q8: an accepted payload does not round-trip: %v", err)
	}
	out := got[:0]
	if allocs := testing.AllocsPerRun(10, func() { out, _ = wire.AppendDecoded(d, out[:0], src, n) }); allocs != 0 && !race.Enabled {
		t.Fatalf("q8: decoding allocates %v times", allocs)
	}
	return got, true
}

type denseCase struct {
	name string
	data []float64
	form wire.DenseForm
}

// denseCases are payloads for the dense forms, each with the form
// AppendDense must pick (255: either narrow form): ±0, denormals and
// MaxFloat64 beside normals, exponents spanning 31 values and 32, Inf and
// NaN, fewer than four values; a lone exponent code (a 1-bit code), a span
// of 31 exponents with every code present, a ReLU-like activation, normals
// around the size where the length table starts to pay.
func denseCases() []denseCase {
	denorm := math.SmallestNonzeroFloat64
	exp := func(e int) float64 { return math.Ldexp(1.5, e) } // biased exponent e+1023
	cases := []denseCase{
		{"zeros and denormals", []float64{0, math.Copysign(0, -1), denorm, -denorm, 0x1.fffffffffffffp-1023, 0}, wire.FormNarrow},
		{"denormals beside normals", []float64{denorm, 1, -0.75, math.Copysign(0, -1), 0x1p-20}, wire.FormNarrow},
		{"top exponents", []float64{math.MaxFloat64, -math.MaxFloat64, exp(1023 - 30), 0, 0x1.0000000000001p1000}, wire.FormNarrow},
		{"MaxFloat64 alone", []float64{math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64}, wire.FormRaw},
		{"span of 31 exponents", []float64{exp(-15), exp(15), -exp(0), exp(-15), 0}, wire.FormNarrow},
		{"span of 32 exponents", []float64{exp(-15), exp(16), -exp(0), exp(-15), 0}, wire.FormRaw},
		{"bottom span of 31", []float64{0x1p-1022, exp(-1022 + 30), -denorm, 0}, wire.FormNarrow},
		{"Inf", []float64{1, 2, math.Inf(1), 3, 4}, wire.FormRaw},
		{"NaN", []float64{1, 2, 3, math.Float64frombits(0x7ff8dead0000beef), 4}, wire.FormRaw},
		{"raw codec identity", append([]float64{0, math.Copysign(0, -1), denorm, -0x1p-1060, 0x1p-1022, math.MaxFloat64, -math.MaxFloat64,
			math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff8dead0000beef), 1.5}, tensor.NewRNG(21).FillNormal(tensor.New(3, 4, 5), 0, 1).Data()...), wire.FormRaw},
	}
	rng := tensor.NewRNG(7)
	for n := 0; n <= 9; n++ {
		form := wire.FormRaw
		if n >= 4 {
			form = wire.FormNarrow
		}
		cases = append(cases, denseCase{fmt.Sprintf("%d normals", n), rng.FillNormal(tensor.New(n), 0, 1).Data(), form})
	}

	rng = tensor.NewRNG(11)
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
	relu := rng.FillNormal(tensor.New(4096), 0, 1).Data()
	for i, v := range relu {
		relu[i] = max(v, 0) + 0.25*rng.Normal(0, 1)*float64(i%2)
	}
	withInf := rng.FillNormal(tensor.New(600), 0, 1).Data()
	withInf[599] = math.Inf(-1)
	withNaN := rng.FillNormal(tensor.New(600), 0, 1).Data()
	withNaN[3] = math.NaN()
	wide := rng.FillNormal(tensor.New(600), 0, 1).Data()
	wide[0], wide[1] = exp(-15), exp(16)
	cases = append(cases,
		denseCase{"lone code 0", make([]float64, 64), wire.FormCodedNarrow},
		denseCase{"lone code 1", repeat([]float64{1.5, -1.25}, 40), wire.FormCodedNarrow},
		denseCase{"lone code, 32 values", make([]float64, 32), wire.FormNarrow},
		denseCase{"span of 31", span, wire.FormCodedNarrow},
		denseCase{"±0 and denormals", signed, wire.FormCodedNarrow},
		denseCase{"relu", relu, wire.FormCodedNarrow},
		denseCase{"normals 16384", rng.FillNormal(tensor.New(16384), 0, 1).Data(), wire.FormCodedNarrow},
		denseCase{"ten logits", rng.FillNormal(tensor.New(10), 0, 3).Data(), wire.FormNarrow},
		denseCase{"Inf 600", withInf, wire.FormRaw},
		denseCase{"NaN 600", withNaN, wire.FormRaw},
		denseCase{"span of 32, 600 values", wide, wire.FormRaw},
		denseCase{"three", []float64{1, 2, 3}, wire.FormRaw},
	)
	for n := 24; n <= 72; n += 6 {
		cases = append(cases, denseCase{fmt.Sprintf("%d normals", n), rng.FillNormal(tensor.New(n), 0, 1).Data(), 255})
	}
	return cases
}

// laplace fills n values of a Laplace distribution of scale 1: the shape a
// learned noise gives a quantized activation.
func laplace(rng *tensor.RNG, n int) *tensor.Tensor {
	x := tensor.New(n)
	for i := range x.Data() {
		u := rng.Float64() - 0.5
		x.Data()[i] = -math.Copysign(math.Log(1-2*math.Abs(u)), u)
	}
	return x
}

// codedInputs are packed payloads at every width: Laplace-shaped levels,
// uniform bytes (no code beats storing them), one byte value, and nothing.
func codedInputs(t testing.TB, bits int) map[string][]byte {
	rng := tensor.NewRNG(int64(40 + bits))
	x := laplace(rng, 4096)
	s, err := quantize.Fit(x, bits)
	if err != nil {
		t.Fatal(err)
	}
	uniform := make([]byte, s.WireBytes(4096))
	for i := range uniform {
		uniform[i] = byte(rng.Intn(256))
	}
	return map[string][]byte{
		"laplace":    s.QuantizePacked(x),
		"uniform":    uniform,
		"one symbol": bytes.Repeat([]byte{byte(bits)}, int(s.WireBytes(1<<14))),
		"empty":      {},
	}
}

// TestForms: every payload comes back bit for bit from each form its
// encoder writes, written after dst's bytes without touching them, and
// meets check's properties there; one subtest per stage:
//   - raw: every payload, in 8 bytes a value;
//   - narrow: every payload the narrow form holds, in NarrowLen bytes;
//   - coded narrow: AppendDense picks the form expected, never longer than
//     the narrow form or raw floats;
//   - q8: every width's packed payloads, coded never more than one byte —
//     the stored escape's form byte — longer than the packed payload.
func TestForms(t *testing.T) {
	cases := denseCases()
	backBitForBit := func(t *testing.T, name string, form wire.DenseForm, data []float64, b []byte) {
		t.Helper()
		if got, ok := check(t, byte(form), len(data), b); !ok || !bytes.Equal(got, wire.AppendFloats(nil, data)) {
			t.Fatalf("%s: form %d does not give the values back bit for bit", name, form)
		}
	}
	t.Run("raw", func(t *testing.T) {
		for _, c := range cases {
			b := wire.AppendFloats([]byte("prefix"), c.data)
			if string(b[:6]) != "prefix" || len(b) != 6+8*len(c.data) {
				t.Fatalf("%s: AppendFloats wrote %d bytes for %d values", c.name, len(b)-6, len(c.data))
			}
			backBitForBit(t, c.name, wire.FormRaw, c.data, b[6:])
		}
	})
	t.Run("narrow", func(t *testing.T) {
		for _, c := range cases {
			b, ok := wire.AppendNarrow([]byte("prefix"), c.data)
			if ok != (c.form != wire.FormRaw) {
				t.Errorf("%s: narrow form taken %v, want %v", c.name, ok, c.form != wire.FormRaw)
			}
			if !ok {
				continue
			}
			if string(b[:6]) != "prefix" || len(b) != 6+wire.NarrowLen(len(c.data)) {
				t.Fatalf("%s: AppendNarrow wrote %d bytes for %d values", c.name, len(b)-6, len(c.data))
			}
			backBitForBit(t, c.name, wire.FormNarrow, c.data, b[6:])
		}
	})
	t.Run("coded narrow", func(t *testing.T) {
		for _, c := range cases {
			n := len(c.data)
			b, form := wire.AppendDense([]byte("prefix"), c.data)
			if string(b[:6]) != "prefix" {
				t.Fatalf("%s: the prefix was overwritten", c.name)
			}
			b = b[6:]
			if form != c.form && !(c.form == 255 && form != wire.FormRaw) {
				t.Errorf("%s: form %d, want %d", c.name, form, c.form)
			}
			if !wire.DenseFits(form, n, len(b)) || len(b) > 8*n {
				t.Errorf("%s: %d bytes for %d values in form %d", c.name, len(b), n, form)
			}
			if narrow, ok := wire.AppendNarrow(nil, c.data); ok && len(b) > len(narrow) {
				t.Errorf("%s: %d bytes where the narrow form takes %d", c.name, len(b), len(narrow))
			}
			backBitForBit(t, c.name, form, c.data, b)
		}
	})
	t.Run("q8", func(t *testing.T) {
		for bits := 1; bits <= 16; bits++ {
			for name, packed := range codedInputs(t, bits) {
				name = fmt.Sprintf("bits=%d %s", bits, name)
				coded := wire.AppendCoded([]byte("hdr"), packed)
				if !bytes.Equal(coded[:3], []byte("hdr")) {
					t.Fatalf("%s: the prefix was overwritten", name)
				}
				coded = coded[3:]
				if len(coded) > len(packed)+1 {
					t.Fatalf("%s: %d packed bytes coded to %d", name, len(packed), len(coded))
				}
				if got, ok := check(t, formQ8, len(packed), coded); !ok || !bytes.Equal(got, packed) {
					t.Fatalf("%s: decoding does not give the packed bytes back", name)
				}
			}
		}
	})
}

// TestAllocatesNothingWarm: an encode into a buffer that has held the
// payload before allocates nothing, for every dense payload, raw ones
// included, and every q8 payload; check then holds the decode of what was
// written to the same, with a warm decoder. The trials of the narrow forms
// need more room than raw words take for 4 ≤ n ≤ 13 values (NarrowLen(n)+8
// > 8n in AppendNarrow) and for n ≥ 35 (the coded trial), so a buffer with room
// for the raw words and no more grows once there even when the payload goes
// raw; a warm buffer, one that trial already grew, is never such a buffer.
func TestAllocatesNothingWarm(t *testing.T) {
	warm := func(t *testing.T, name string, encode func()) {
		t.Helper()
		if n := testing.AllocsPerRun(5, encode); n != 0 && !race.Enabled {
			t.Errorf("%s: a warm encode: %v allocations", name, n)
		}
	}
	t.Run("dense", func(t *testing.T) {
		for _, c := range denseCases() {
			b, form := wire.AppendDense(nil, c.data)
			warm(t, c.name, func() { b, _ = wire.AppendDense(b[:0], c.data) })
			check(t, byte(form), len(c.data), b)
		}
	})
	t.Run("q8", func(t *testing.T) {
		for bits := 1; bits <= 16; bits++ {
			for name, packed := range codedInputs(t, bits) {
				coded := wire.AppendCoded(nil, packed)
				warm(t, fmt.Sprintf("bits=%d %s", bits, name), func() { coded = wire.AppendCoded(coded[:0], packed) })
				check(t, formQ8, len(packed), coded)
			}
		}
	})
}

// TestCodedSpellings pins the q8 stage's spelling rule. Unlike the dense
// forms, the decoder takes spellings AppendCoded never writes — a stored
// payload the coder would have coded, a complete length table that is not
// the canonical one, a coded payload longer than its stored form — and each
// decodes to the packed bytes of the canonical spelling. The audit digest is
// taken over those decoded bytes, so no spelling changes what is audited.
func TestCodedSpellings(t *testing.T) {
	levels := codedInputs(t, 8)["laplace"]
	few := bytes.Repeat([]byte{3, 3, 3, 3, 7, 7, 9, 200}, 39)
	four := []byte{3, 7, 9, 200}
	for name, c := range map[string]struct{ packed, spelling []byte }{
		"stored where the coder codes":   {levels, append([]byte{q8Stored}, levels...)},
		"complete, not canonical":        {few, twoBitCode(few)},
		"coded, longer than stored form": {four, twoBitCode(four)},
	} {
		canonical := wire.AppendCoded(nil, c.packed)
		want, err := wire.AppendDecoded(new(wire.HuffmanDecoder), nil, canonical, len(c.packed))
		got, gotErr := wire.AppendDecoded(new(wire.HuffmanDecoder), nil, c.spelling, len(c.packed))
		if bytes.Equal(canonical, c.spelling) || err != nil || gotErr != nil || !bytes.Equal(got, want) || !bytes.Equal(got, c.packed) {
			t.Errorf("%s: decodes to other bytes than the canonical spelling (%v, %v)", name, err, gotErr)
		}
	}
	if wire.AppendCoded(nil, levels)[0] != q8Coded || len(wire.AppendCoded(nil, four)) >= len(twoBitCode(four)) {
		t.Fatal("the Laplace levels are not coded, or four bytes' coded spelling is not the longer one")
	}
}

// twoBitCode spells packed, whose bytes are among 3, 7, 9 and 200, in the
// coded form under the complete code that gives each a 2-bit code: 00, 01,
// 10, 11 in that order, as a canonical assignment does.
func twoBitCode(packed []byte) []byte {
	b := make([]byte, q8Header)
	b[0] = q8Coded
	code := map[byte]byte{}
	for i, v := range []byte{3, 7, 9, 200} {
		b[1+v/2] |= 2 << (4 * (v % 2))
		code[v] = byte(i)
	}
	var acc byte
	for i, v := range packed {
		if acc = acc<<2 | code[v]; i%4 == 3 {
			b, acc = append(b, acc), 0
		}
	}
	if r := len(packed) % 4; r > 0 {
		b = append(b, acc<<(8-2*r))
	}
	return b
}

// TestCodedShrinksLaplaceLevels: an 8-bit payload of Laplace-shaped levels is
// coded, not stored, and within a few percent of its order-0 entropy.
func TestCodedShrinksLaplaceLevels(t *testing.T) {
	packed := codedInputs(t, 8)["laplace"]
	var h [256]int
	for _, v := range packed {
		h[v]++
	}
	entropy := 0.0
	for _, k := range h {
		if k > 0 {
			p := float64(k) / float64(len(packed))
			entropy -= float64(k) * math.Log2(p)
		}
	}
	coded := wire.AppendCoded(nil, packed)
	if coded[0] != q8Coded {
		t.Fatalf("form %d, want the coded form", coded[0])
	}
	stream := float64(8 * (len(coded) - q8Header))
	if stream > 1.03*entropy+8 {
		t.Fatalf("%v stream bits for %v bits of entropy", stream, entropy)
	}
	t.Logf("%d packed bytes → %d coded (entropy %.0f bytes)", len(packed), len(coded), entropy/8)
	if got := codedInputs(t, 8)["uniform"]; wire.AppendCoded(nil, got)[0] != q8Stored {
		t.Fatal("uniform bytes must take the stored escape")
	}
}

// A seed of FuzzDecode: a form, a value count (packed length, for formQ8)
// and bytes, and whether the stage takes them.
type seed struct {
	name string
	form byte
	n    int
	src  []byte
	good bool
}

// seeds are FuzzDecode's starting corpus, in a fixed order: for each stage,
// payloads that are good, cut short, or one field away from a spelling the
// decoder takes.
func seeds(t testing.TB) []seed {
	edit := func(b []byte, f func(b []byte)) []byte {
		b = append([]byte(nil), b...)
		f(b)
		return b
	}
	narrow := func(data []float64) []byte {
		b, ok := wire.AppendNarrow(nil, data)
		if !ok {
			panic("seed does not take the narrow form")
		}
		return b
	}
	normals := narrow(tensor.NewRNG(5).FillNormal(tensor.New(9), 0, 1).Data())
	zeros := narrow(make([]float64, 5))
	const n, cn = byte(wire.FormNarrow), byte(wire.FormCodedNarrow)
	out := []seed{
		{"raw", byte(wire.FormRaw), 3, wire.AppendFloats(nil, []float64{1, -0.5, 3e-300}), true},
		{"narrow normals", n, 9, normals, true},
		{"narrow zeros", n, 5, zeros, true},
		{"narrow four", n, 4, narrow([]float64{1, -2, 0, 3e-5}), true},
		{"narrow top", n, 6, narrow([]float64{math.MaxFloat64, 0x1p993, -1e300, 0, 5e-324, 1e299}), true},
		{"narrow truncated", n, 9, normals[:len(normals)-1], false},
		{"narrow three", n, 3, make([]byte, wire.NarrowLen(3)), false},
		{"narrow emin lower", n, 5, edit(zeros, func(b []byte) { b[0] = 2 }), false},
		{"narrow emin 0", n, 5, edit(zeros, func(b []byte) { b[0] = 0 }), false},
		{"narrow emin top", n, 5, edit(zeros, func(b []byte) { binary.LittleEndian.PutUint16(b, narrowMaxEmin+1) }), false},
		{"narrow pad bit", n, 5, edit(zeros, func(b []byte) { b[len(b)-1] |= 0x80 }), false},
	}

	coded := func(data []float64) []byte {
		b, form := wire.AppendDense(nil, data)
		if form != wire.FormCodedNarrow {
			panic("seed does not take the coded narrow form")
		}
		return b
	}
	cNormals := coded(tensor.NewRNG(5).FillNormal(tensor.New(77), 0, 1).Data())
	cZeros := coded(make([]float64, 41))
	// Three codes of 1, 2 and 2 bits.
	three := coded(append(append(repeat([]float64{1}, 40), repeat([]float64{2}, 12)...), repeat([]float64{4}, 8)...))
	table := func(b []byte) []byte { return b[len(b)-16:] }
	// The same values under a complete code of four 2-bit codes, with a
	// stream that decodes to code 1 sixty times: a lone code's counts build
	// a 1-bit code, not this one.
	notCanonical := append(append([]byte(nil), three[:2+6*60+(5*60+7)/8]...), repeat([]byte{0x55}, 15)...)
	notCanonical = append(notCanonical, 0x22, 0x22, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	out = append(out,
		seed{"coded narrow normals", cn, 77, cNormals, true},
		seed{"coded narrow zeros", cn, 41, cZeros, true},
		seed{"coded narrow ones", cn, 64, coded(repeat([]float64{1}, 64)), true},
		seed{"coded narrow three codes", cn, 60, three, true},
		seed{"coded narrow truncated", cn, 77, cNormals[:len(cNormals)-1], false},
		seed{"coded narrow one byte more", cn, 77, append(append([]byte(nil), cNormals...), 0), false},
		seed{"coded narrow narrow length", cn, 41, make([]byte, wire.NarrowLen(41)), false},
		seed{"coded narrow emin 2, codes 0", cn, 41, edit(cZeros, func(b []byte) { b[0] = 2 }), false},
		seed{"coded narrow emin 0", cn, 41, edit(cZeros, func(b []byte) { b[0] = 0 }), false},
		seed{"coded narrow oversubscribed code", cn, 60, edit(three, func(b []byte) { table(b)[0] = 0x11 }), false},
		seed{"coded narrow incomplete code", cn, 60, edit(three, func(b []byte) { table(b)[1] = 0x02 }), false},
		seed{"coded narrow not its counts' code", cn, 60, notCanonical, false},
		seed{"coded narrow code length 13", cn, 60, edit(three, func(b []byte) { table(b)[0] = 0xd0 }), false},
		seed{"coded narrow stream pad bit", cn, 41, edit(cZeros, func(b []byte) { b[len(b)-17] |= 0x01 }), false},
		seed{"coded narrow tail pad bit", cn, 41, edit(cZeros, func(b []byte) { b[2+6*41+(5*41+7)/8-1] |= 0x80 }), false},
	)

	for _, bits := range []int{1, 4, 8, 12, 16} {
		inputs := codedInputs(t, bits)
		for _, name := range []string{"laplace", "uniform", "one symbol", "empty"} {
			packed := inputs[name]
			out = append(out, seed{fmt.Sprintf("q8 bits=%d %s", bits, name), formQ8, len(packed), wire.AppendCoded(nil, packed), true})
		}
	}
	// Codes of 1, 2, 3 and 3 bits: 546 bits, the stream padded with 6 zero bits.
	packed := bytes.Repeat([]byte{3, 3, 3, 3, 7, 7, 9, 200}, 39)
	q8 := wire.AppendCoded(nil, packed)
	pn := len(packed)
	with := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), q8...)) }
	// lone is a coded payload whose table gives value 0 the length l and no
	// other value a code, with the given stream.
	lone := func(l byte, stream ...byte) []byte {
		b := make([]byte, q8Header, q8Header+len(stream))
		b[0], b[1] = q8Coded, l
		return append(b, stream...)
	}
	return append(out,
		seed{"q8 valid", formQ8, pn, q8, true},
		seed{"q8 stored", formQ8, 3, []byte{q8Stored, 1, 2, 3}, true},
		seed{"q8 empty", formQ8, 0, nil, false},
		seed{"q8 form 2", formQ8, 3, []byte{2, 1, 2, 3}, false},
		seed{"q8 stored short", formQ8, 3, []byte{q8Stored, 1, 2}, false},
		seed{"q8 stored long", formQ8, 3, []byte{q8Stored, 1, 2, 3, 4}, false},
		seed{"q8 negative length", formQ8, -1, []byte{q8Stored}, false},
		seed{"q8 table cut short", formQ8, 0, q8[:q8Header-1], false},
		seed{"q8 length past stream", formQ8, 8*(len(q8)-q8Header) + 1, q8, false},
		seed{"q8 stream short", formQ8, pn, q8[:len(q8)-1], false},
		seed{"q8 trailing byte", formQ8, pn, append(append([]byte(nil), q8...), 0), false},
		seed{"q8 values past padding", formQ8, pn + 7, q8, false}, // value 3's code is one 0 bit: six of them fit the padding
		seed{"q8 one value too few", formQ8, pn - 8, q8, false},
		seed{"q8 nonzero padding", formQ8, pn, with(func(b []byte) []byte { b[len(b)-1] |= 1; return b }), false},
		seed{"q8 code length 13", formQ8, pn, with(func(b []byte) []byte { b[1+3/2] = 0xd0 | b[1+3/2]&15; return b }), false},
		seed{"q8 oversubscribed code", formQ8, pn, with(func(b []byte) []byte { b[1+100/2] = 1; return b }), false},
		seed{"q8 incomplete code", formQ8, pn, with(func(b []byte) []byte { b[1+200/2] = 0; return b }), false},
		seed{"q8 no code", formQ8, 2, lone(0, 0, 0, 0, 0), false},
		seed{"q8 lone value of 2 bits", formQ8, 1, lone(2, 0), false},
		seed{"q8 lone value, 1 bit", formQ8, 1, lone(1, 0x80), false}, // value 0's code is 0; the half of 1 is no code
	)
}

// stages names the stages by form byte, as the subtests of TestSeeds and
// TestSeedsRefused are named.
var stages = [...]string{"raw", "narrow", "coded narrow", "q8"}

// seedsOf runs, for each stage, a subtest over that stage's seeds of the
// given verdict, each through check, which holds them to the stage
// properties; it reports a seed whose verdict check does not return.
func seedsOf(t *testing.T, good bool) {
	all := seeds(t)
	for form, stage := range stages {
		var of []seed
		for _, s := range all {
			if int(s.form) == form && s.good == good {
				of = append(of, s)
			}
		}
		if len(of) == 0 {
			continue
		}
		t.Run(stage, func(t *testing.T) {
			for _, s := range of {
				if _, ok := check(t, s.form, s.n, s.src); ok != good {
					t.Errorf("%s: accepted %v, want %v", s.name, ok, good)
				}
			}
		})
	}
}

// TestSeeds: each stage's good seeds are accepted.
func TestSeeds(t *testing.T) { seedsOf(t, true) }

// TestSeedsRefused: every other seed is refused, with the stage's typed
// error and the destination as it was, so the corpus starts on each check
// of each decoder.
func TestSeedsRefused(t *testing.T) { seedsOf(t, false) }

// FuzzDecode holds every stage to check's properties on any bytes: the form
// byte picks the stage (modulo the four there are), n the value count or,
// for the q8 stage, the packed length claimed. Nothing panics.
func FuzzDecode(f *testing.F) {
	for _, s := range seeds(f) {
		f.Add(s.form, s.n, s.src)
	}
	f.Fuzz(func(t *testing.T, form byte, n int, src []byte) {
		check(t, form%4, n, src)
	})
}

// repeat is s, count times over.
func repeat[T any](s []T, count int) []T {
	var r []T
	for range count {
		r = append(r, s...)
	}
	return r
}

// BenchmarkNarrowFloats times the narrow form's encoder and decoder on
// 16 384 normal values — the volume of cloud_svhn's conv0 activation — beside
// the coded narrow form's (AppendDense, which also counts and picks) and raw
// floats, into warm buffers (0 allocations). The budgets, at -cpu 1 on a
// 2-vCPU x86-64 host: narrow encode plus decode within 110 µs; coded within
// 60 µs more than narrow.
//
//	go test ./internal/wire -run '^$' -bench BenchmarkNarrowFloats -benchmem -cpu 1
func BenchmarkNarrowFloats(b *testing.B) {
	data := tensor.NewRNG(1).FillNormal(tensor.New(16384), 0, 1).Data()
	dst := make([]float64, len(data))
	narrow, ok := wire.AppendNarrow(nil, data)
	if !ok {
		b.Fatal("payload does not take the narrow form")
	}
	coded, form := wire.AppendDense(nil, data)
	if form != wire.FormCodedNarrow {
		b.Fatal("payload does not take the coded narrow form")
	}
	raw := wire.AppendFloats(nil, data)
	buf := make([]byte, 0, len(raw)+8)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = wire.AppendNarrow(buf[:0], data)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := wire.DecodeNarrow(dst, narrow); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode-coded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = wire.AppendDense(buf[:0], data)
		}
	})
	var d wire.HuffmanDecoder
	b.Run("decode-coded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := wire.DecodeCodedNarrow(dst, coded, &d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode-raw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = wire.AppendFloats(buf[:0], data)
		}
	})
	b.Run("decode-raw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wire.DecodeFloats(dst, raw)
		}
	})
}

// BenchmarkCoded times the edge's wire work on one 16 384-value
// Laplace-shaped activation after its fit (quantize's BenchmarkFit): the
// fused pack, the coder (its count of the bytes included), and the server's
// decoder.
//
//	go test ./internal/wire -run '^$' -bench BenchmarkCoded -cpu 1
func BenchmarkCoded(b *testing.B) {
	x := laplace(tensor.NewRNG(8), 16384)
	s, err := quantize.Fit(x, 8)
	if err != nil {
		b.Fatal(err)
	}
	packed := s.AppendPacked(nil, x.Data())
	coded := wire.AppendCoded(nil, packed)
	b.Run("pack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			packed = s.AppendPacked(packed[:0], x.Data())
		}
	})
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			coded = wire.AppendCoded(coded[:0], packed)
		}
	})
	out := make([]byte, 0, len(packed))
	var d wire.HuffmanDecoder
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, _ = wire.AppendDecoded(&d, out[:0], coded, len(packed))
		}
	})
	b.ReportMetric(float64(len(coded)), "coded_B")
}
