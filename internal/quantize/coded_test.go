package quantize

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"shredder/internal/race"
	"shredder/internal/tensor"
)

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
	s, err := Fit(x, bits)
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

// TestCodedRoundTrip: decoding what AppendCoded wrote gives the packed bytes
// back, for every width and kind of payload, and the coded form is never more
// than one byte — the stored escape's form byte — longer than the packed one.
func TestCodedRoundTrip(t *testing.T) {
	for bits := 1; bits <= 16; bits++ {
		for name, packed := range codedInputs(t, bits) {
			coded := AppendCoded([]byte("hdr"), packed)
			if !bytes.Equal(coded[:3], []byte("hdr")) {
				t.Fatalf("bits=%d %s: the prefix was overwritten", bits, name)
			}
			coded = coded[3:]
			if len(coded) > len(packed)+1 {
				t.Fatalf("bits=%d %s: %d packed bytes coded to %d", bits, name, len(packed), len(coded))
			}
			got, err := AppendDecoded(new(tensor.HuffmanDecoder), []byte("hdr"), coded, len(packed))
			if err != nil {
				t.Fatalf("bits=%d %s: %v", bits, name, err)
			}
			if !bytes.Equal(got[:3], []byte("hdr")) || !bytes.Equal(got[3:], packed) {
				t.Fatalf("bits=%d %s: decoding does not give the packed bytes back", bits, name)
			}
		}
	}
}

// TestCodedShrinksLaplaceLevels: an 8-bit payload of Laplace-shaped levels is
// coded, not stored, and within a few percent of its order-0 entropy.
func TestCodedShrinksLaplaceLevels(t *testing.T) {
	packed := codedInputs(t, 8)["laplace"]
	var h histogram
	h.count(packed)
	entropy := 0.0
	for _, k := range h {
		if k > 0 {
			p := float64(k) / float64(len(packed))
			entropy -= float64(k) * math.Log2(p)
		}
	}
	coded := AppendCoded(nil, packed)
	if coded[0] != formCoded {
		t.Fatalf("form %d, want the coded form", coded[0])
	}
	stream := float64(8 * (len(coded) - codedHeader))
	if stream > 1.03*entropy+8 {
		t.Fatalf("%v stream bits for %v bits of entropy", stream, entropy)
	}
	t.Logf("%d packed bytes → %d coded (entropy %.0f bytes)", len(packed), len(coded), entropy/8)
	if got := codedInputs(t, 8)["uniform"]; AppendCoded(nil, got)[0] != formStored {
		t.Fatal("uniform bytes must take the stored escape")
	}
}

// TestCodeIsLengthLimited drives the length limit: counts in a Fibonacci
// run give a Huffman tree as deep as it can be, far past the coder's limit
// of 12 bits, and the code cut to 12 bits still round-trips.
func TestCodeIsLengthLimited(t *testing.T) {
	var packed []byte
	a, b := 1, 1
	for v := 0; v < 24; v++ {
		packed = append(packed, bytes.Repeat([]byte{byte(v)}, a)...)
		a, b = b, a+b
	}
	coded := AppendCoded(nil, packed)
	if coded[0] != formCoded {
		t.Fatal("a Fibonacci payload was stored, not coded")
	}
	var c tensor.HuffmanCode
	if err := c.ReadTable(coded[1:codedHeader]); err != nil {
		t.Fatalf("the limited code is not one the decoder takes: %v", err)
	}
	for v := range 24 {
		if l := coded[1+v/2] >> (4 * (v % 2)) & 15; l < 1 || l > 12 {
			t.Fatalf("value %d has a %d-bit code", v, l)
		}
	}
	got, err := AppendDecoded(new(tensor.HuffmanDecoder), nil, coded, len(packed))
	if err != nil || !bytes.Equal(got, packed) {
		t.Fatalf("length-limited round trip: %v", err)
	}
}

// validCoded is a coded payload of a few values and its packed bytes.
func validCoded() (coded, packed []byte) {
	// Codes of 1, 2, 3 and 3 bits: 546 bits, the stream padded with 6 zero bits.
	packed = bytes.Repeat([]byte{3, 3, 3, 3, 7, 7, 9, 200}, 39)
	return AppendCoded(nil, packed), packed
}

// lone is a coded payload whose table gives value 0 the length l and no other
// value a code, with the given stream.
func lone(l byte, stream ...byte) []byte {
	b := make([]byte, codedHeader, codedHeader+len(stream))
	b[0], b[1] = formCoded, l
	return append(b, stream...)
}

// hostileCoded are coded payloads no encoder writes, each with the packed
// length it claims to hold; AppendDecoded refuses every one.
func hostileCoded() map[string]struct {
	coded []byte
	n     int
} {
	coded, packed := validCoded()
	n := len(packed)
	with := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), coded...)) }
	return map[string]struct {
		coded []byte
		n     int
	}{
		"empty":                {nil, 0},
		"form 2":               {[]byte{2, 1, 2, 3}, 3},
		"stored short":         {[]byte{formStored, 1, 2}, 3},
		"stored long":          {[]byte{formStored, 1, 2, 3, 4}, 3},
		"negative length":      {[]byte{formStored}, -1},
		"table cut short":      {coded[:codedHeader-1], 0},
		"length past stream":   {coded, 8*(len(coded)-codedHeader) + 1},
		"stream short":         {coded[:len(coded)-1], n},
		"trailing byte":        {append(append([]byte(nil), coded...), 0), n},
		"values past padding":  {coded, n + 7}, // value 3's code is one 0 bit: six of them fit the padding
		"one value too few":    {coded, n - 8},
		"nonzero padding":      {with(func(b []byte) []byte { b[len(b)-1] |= 1; return b }), n},
		"code length 13":       {with(func(b []byte) []byte { b[1+3/2] = 0xd0 | b[1+3/2]&15; return b }), n},
		"oversubscribed code":  {with(func(b []byte) []byte { b[1+100/2] = 1; return b }), n},
		"incomplete code":      {with(func(b []byte) []byte { b[1+200/2] = 0; return b }), n},
		"no code":              {lone(0, 0, 0, 0, 0), 2},
		"lone value of 2 bits": {lone(2, 0), 1},
		"lone value, 1 bit":    {lone(1, 0x80), 1}, // value 0's code is 0; the half of 1 is no code
	}
}

func TestDecodeCodedRejects(t *testing.T) {
	for name, c := range hostileCoded() {
		dst := []byte("kept")
		got, err := AppendDecoded(new(tensor.HuffmanDecoder), dst, c.coded, c.n)
		if !errors.Is(err, ErrBadPayload) {
			t.Errorf("%s: error %v, want ErrBadPayload", name, err)
		}
		if string(got) != "kept" {
			t.Errorf("%s: a refused payload left %q in dst", name, got)
		}
	}
}

// TestRefusedCodeSizesNothing: a coded payload claims a packed length up to
// eight times its bytes, and one whose length table is refused is turned
// away before anything is sized from that claim.
func TestRefusedCodeSizesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	packed := make([]byte, 1<<20)
	coded := AppendCoded(nil, packed) // one value: a 1-bit code per byte
	coded[1] = 2                      // value 0's code is 2 bits: the code is incomplete
	var d tensor.HuffmanDecoder
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := AppendDecoded(&d, nil, coded, len(packed))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadPayload) || got != nil {
		t.Fatalf("a broken length table: %d bytes, error %v", len(got), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= uint64(len(coded)) {
		t.Fatalf("refusing %d coded bytes that claim %d allocated %d bytes", len(coded), len(packed), grew)
	}
}

// TestCodedAllocatesNothingWarm pins the coder at zero allocations into
// buffers that have held such a payload before.
func TestCodedAllocatesNothingWarm(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	x := laplace(tensor.NewRNG(6), 16384)
	s, err := Fit(x, 8)
	if err != nil {
		t.Fatal(err)
	}
	packed := s.AppendPacked(nil, x.Data())
	coded := AppendCoded(nil, packed)
	if coded[0] != formCoded {
		t.Fatal("a Laplace payload was stored, not coded")
	}
	if n := testing.AllocsPerRun(50, func() {
		packed = s.AppendPacked(packed[:0], x.Data())
		coded = AppendCoded(coded[:0], packed)
	}); n != 0 {
		t.Errorf("a warm encode: %v allocations", n)
	}
	out := make([]byte, 0, len(packed))
	var d tensor.HuffmanDecoder
	if n := testing.AllocsPerRun(50, func() {
		var err error
		if out, err = AppendDecoded(&d, out[:0], coded, len(packed)); err != nil {
			t.Error(err)
		}
	}); n != 0 {
		t.Errorf("a warm decode: %v allocations", n)
	}
	if !bytes.Equal(out, packed) {
		t.Fatal("the warm decode gave other bytes")
	}
}

// fitReference is Fit as it was written first, a pass over the sample for
// each of Mean, Std (two) and Min and Max: the pin for the two-pass Fit.
func fitReference(sample *tensor.Tensor, bits int) (Scheme, error) {
	mean, std := sample.Mean(), sample.Std()
	lo := math.Max(sample.Min(), mean-4*std)
	hi := math.Min(sample.Max(), mean+4*std)
	if hi <= lo {
		hi = lo + 1e-9
	}
	return NewScheme(bits, lo, hi)
}

func TestFitMatchesFivePassReference(t *testing.T) {
	rng := tensor.NewRNG(12)
	negZero := math.Copysign(0, -1)
	inputs := map[string][]float64{
		"laplace":        laplace(rng, 16384).Data(),
		"normal":         rng.FillNormal(tensor.New(1001), 3, 0.5).Data(),
		"constant":       tensor.New(64).Fill(2.5).Data(),
		"single":         {-7.25},
		"signed zeros":   {0, negZero, negZero, 0},
		"negative zero":  {negZero},
		"infinities":     {1, math.Inf(1), -2, math.Inf(-1)},
		"plus infinity":  {1, 2, math.Inf(1)},
		"nan first":      {math.NaN(), 1, 2},
		"nan later":      {1, math.NaN(), 2},
		"huge":           {-math.MaxFloat64, math.MaxFloat64, 0},
		"subnormal span": {5e-324, 1e-323, 0},
	}
	for name, d := range inputs {
		x := tensor.From(append([]float64(nil), d...), len(d))
		for _, bits := range []int{1, 8, 16} {
			got, err := Fit(x, bits)
			want, wantErr := fitReference(x, bits)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("%s bits=%d: error %v, reference %v", name, bits, err, wantErr)
			}
			if got.Bits != want.Bits || math.Float64bits(got.Lo) != math.Float64bits(want.Lo) ||
				math.Float64bits(got.Hi) != math.Float64bits(want.Hi) {
				t.Fatalf("%s bits=%d: Fit %+v, reference %+v", name, bits, got, want)
			}
		}
	}
}

// FuzzDecodeCoded: any bytes, with any packed length claimed for them,
// either decode — into no more than the bytes' bits can hold, sized only after
// that bound was checked, and to a payload that codes and decodes to itself —
// or are refused with ErrBadPayload. Nothing panics.
func FuzzDecodeCoded(f *testing.F) {
	for _, bits := range []int{1, 4, 8, 12, 16} {
		for _, packed := range codedInputs(f, bits) {
			f.Add(AppendCoded(nil, packed), len(packed))
		}
	}
	coded, packed := validCoded()
	f.Add(coded, len(packed))
	f.Add([]byte{formStored, 1, 2, 3}, 3)
	for _, c := range hostileCoded() {
		f.Add(c.coded, c.n)
	}
	f.Fuzz(func(t *testing.T, coded []byte, n int) {
		checked := CheckCoded(coded, n)
		got, err := AppendDecoded(new(tensor.HuffmanDecoder), nil, coded, n)
		if err != nil {
			if !errors.Is(err, ErrBadPayload) {
				t.Fatalf("untyped error %v", err)
			}
			if len(got) != 0 {
				t.Fatalf("a refused payload decoded to %d bytes", len(got))
			}
			return
		}
		if checked != nil {
			t.Fatalf("decoded what CheckCoded refuses: %v", checked)
		}
		if len(got) != n || n > 8*len(coded) {
			t.Fatalf("%d coded bytes decoded to %d, %d claimed", len(coded), len(got), n)
		}
		again, err := AppendDecoded(new(tensor.HuffmanDecoder), nil, AppendCoded(nil, got), n)
		if err != nil || !bytes.Equal(again, got) {
			t.Fatalf("an accepted payload does not round-trip: %v", err)
		}
	})
}

var fitSink Scheme

// BenchmarkFit and BenchmarkCoded time the edge's wire work on one 16 384-value
// Laplace-shaped activation: the fit, the fused pack, the coder (its count of
// the bytes included), and the server's decoder.
func BenchmarkFit(b *testing.B) {
	x := laplace(tensor.NewRNG(7), 16384)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Fit(x, 8)
		if err != nil {
			b.Fatal(err)
		}
		fitSink = s
	}
}

func BenchmarkCoded(b *testing.B) {
	x := laplace(tensor.NewRNG(8), 16384)
	s, err := Fit(x, 8)
	if err != nil {
		b.Fatal(err)
	}
	packed := s.AppendPacked(nil, x.Data())
	coded := AppendCoded(nil, packed)
	b.Run("pack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			packed = s.AppendPacked(packed[:0], x.Data())
		}
	})
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			coded = AppendCoded(coded[:0], packed)
		}
	})
	out := make([]byte, 0, len(packed))
	var d tensor.HuffmanDecoder
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, _ = AppendDecoded(&d, out[:0], coded, len(packed))
		}
	})
	b.ReportMetric(float64(len(coded)), "coded_B")
}
