// Package wire owns every lossless byte stage, below tensor and quantize on
// the standard library alone: the dense payload forms, the Huffman coder and
// the q8 coded stage (huffman.go), and the artifact container. Its decoders
// refuse with typed errors, and CheckedVolume is the one place a shape from
// outside the program is multiplied up (DESIGN §5j, §5k).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"slices"
)

// MaxRank is the most dimensions an artifact's or a frame's shape may have.
const MaxRank = 8

// CheckedVolume is the volume of a shape from outside the program: ok is
// false for a negative dimension and for a running product above limit,
// refused before it is formed, so it cannot wrap round (possibly to the very
// count the bytes carry). With no tighter bound, limit is math.MaxInt.
func CheckedVolume(shape []int, limit int) (vol int, ok bool) {
	vol = 1
	for _, d := range shape {
		if d < 0 || (d > 0 && vol > limit/d) {
			return 0, false
		}
		vol *= d
	}
	return vol, true
}

// AppendFloats appends data to b as raw little-endian float64 words.
func AppendFloats(b []byte, data []float64) []byte {
	n := len(b)
	b = slices.Grow(b, 8*len(data))[:n+8*len(data)]
	for i, v := range data {
		binary.LittleEndian.PutUint64(b[n+8*i:], math.Float64bits(v))
	}
	return b
}

// DecodeFloats fills dst from the little-endian float64 words src starts
// with; src holds at least 8·len(dst) bytes.
func DecodeFloats(dst []float64, src []byte) {
	src = src[:8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// The narrow form: float64 values in 58 bits each, losslessly, for the wire.
// A value keeps its sign and its 52-bit mantissa; its 11-bit exponent becomes
// a 5-bit code, where 0 stands for biased exponent 0 (±0 and the denormals,
// which stay exact) and k for emin+k−1. The layout, little-endian:
//
//	[u16 emin][6n bytes: mantissa bits 0–47][⌈10n/8⌉ bytes: 10-bit heads]
//
// Head i is sign<<9 | code<<4 | mantissa bits 48–51, at bits 10i…10i+9 of
// the head bytes read as one little-endian bit string; the bits after the
// last head are zero. emin is the least nonzero biased exponent present (1
// when none is), and at most narrowMaxEmin, so that every code decodes to a
// finite exponent. A payload has one spelling: DecodeNarrow accepts exactly
// what AppendNarrow writes.

// narrowMaxEmin is the largest emin whose top code, 31, still names a finite
// exponent (0x7FE).
const narrowMaxEmin = 0x7FE - 30

// ErrNarrow is DecodeNarrow's refusal: the bytes are not the narrow form of
// that many values.
var ErrNarrow = errors.New("wire: malformed narrow float payload")

// NarrowLen is the length of n values in the narrow form.
func NarrowLen(n int) int { return 2 + 6*n + (10*n+7)/8 }

// AppendNarrow appends data to b in the narrow form and reports true, when
// that form holds data and is shorter than AppendFloats' (four values or
// more). Otherwise it returns b's len(b) bytes as they were, and false: a
// value is infinite or NaN, the nonzero exponents span more than 31 values,
// or the least of them is above narrowMaxEmin.
func AppendNarrow(b []byte, data []float64) ([]byte, bool) {
	n := len(data)
	if n < 4 {
		return b, false
	}
	emin := leastExponent(data)
	if emin > narrowMaxEmin {
		return b, false
	}
	emin = max(emin, 1) // 1 when every exponent is 0
	off, size := len(b), NarrowLen(n)
	// Eight bytes of room past the end: every store below is a whole word.
	b = slices.Grow(b, size+8)[:off+size+8]
	binary.LittleEndian.PutUint16(b[off:], uint16(emin))
	low, heads := b[off+2:], b[off+2+6*n:]
	base := int64(emin-1) << 4
	// over gathers every code<<4 | mantissa bits: one of 512 or more is an
	// exponent above emin+30, Inf and NaN included.
	var over uint64
	full := n &^ 3
	for i, k := 0, 0; i < full; i, k = i+4, k+5 {
		d := data[i : i+4 : i+4]
		l := low[6*i : 6*i+26]
		x0, x1, x2, x3 := math.Float64bits(d[0]), math.Float64bits(d[1]), math.Float64bits(d[2]), math.Float64bits(d[3])
		// Each word's top two bytes land on the next value, which
		// overwrites them, or, for the last value, on the first head.
		binary.LittleEndian.PutUint64(l, x0)
		binary.LittleEndian.PutUint64(l[6:], x1)
		binary.LittleEndian.PutUint64(l[12:], x2)
		binary.LittleEndian.PutUint64(l[18:], x3)
		c0, c1, c2, c3 := narrowCode(x0, base), narrowCode(x1, base), narrowCode(x2, base), narrowCode(x3, base)
		over |= c0 | c1 | c2 | c3
		word := narrowHead(x0, c0) | narrowHead(x1, c1)<<10 | narrowHead(x2, c2)<<20 | narrowHead(x3, c3)<<30
		binary.LittleEndian.PutUint64(heads[k:k+8], word)
	}
	if full < n {
		var word uint64
		for j, v := range data[full:] {
			x := math.Float64bits(v)
			binary.LittleEndian.PutUint64(low[6*(full+j):], x)
			c := narrowCode(x, base)
			over |= c
			word |= narrowHead(x, c) << (10 * j)
		}
		binary.LittleEndian.PutUint64(heads[full/4*5:], word)
	}
	if over >= 32<<4 {
		return b[:off], false
	}
	// Restore the two head bytes the last value's store ran over.
	x0, x1 := math.Float64bits(data[0]), math.Float64bits(data[1])
	first := narrowHead(x0, narrowCode(x0, base)) | narrowHead(x1, narrowCode(x1, base))<<10
	heads[0], heads[1] = byte(first), byte(first>>8)
	return b[:off+size], true
}

// leastExponent is the least nonzero biased exponent in data, 0 when there
// is none. It keeps four running minima, so that no min waits on the one
// before, over the magnitudes' bits less 1<<52: their order is the values'
// order by magnitude, and for exponent 0 the difference wraps round to the
// top and never lowers the least.
func leastExponent(data []float64) uint64 {
	const abs, one = 1<<63 - 1, 1 << 52
	var lo0, lo1, lo2, lo3 uint64 = math.MaxUint64, math.MaxUint64, math.MaxUint64, math.MaxUint64
	for len(data) >= 4 {
		lo0 = min(lo0, math.Float64bits(data[0])&abs-one)
		lo1 = min(lo1, math.Float64bits(data[1])&abs-one)
		lo2 = min(lo2, math.Float64bits(data[2])&abs-one)
		lo3 = min(lo3, math.Float64bits(data[3])&abs-one)
		data = data[4:]
	}
	for _, v := range data {
		lo0 = min(lo0, math.Float64bits(v)&abs-one)
	}
	return (min(lo0, lo1, lo2, lo3) + one) >> 52
}

// narrowCode is code<<4 | mantissa bits 48–51 of value x, when its exponent
// is 0 or above base>>4: its exponent and those bits, less base, or for
// exponent 0, which that difference falls below, the bits alone.
func narrowCode(x uint64, base int64) uint64 {
	t := int64(x >> 48 & 0x7FFF)
	return uint64(max(t-base, t&0xF))
}

// narrowHead is the 10-bit head of value x, whose code and mantissa bits
// are c.
func narrowHead(x, c uint64) uint64 { return x>>54&0x200 | c }

// DecodeNarrow fills dst from src, the narrow form of len(dst) values, and
// returns ErrNarrow, leaving dst untouched, when src is not exactly what
// AppendNarrow writes for some len(dst) values: a wrong length, an emin
// that is not the least exponent present or is above narrowMaxEmin, or a
// nonzero bit after the last head.
func DecodeNarrow(dst []float64, src []byte) error {
	n := len(dst)
	if n < 4 || len(src) != NarrowLen(n) {
		return ErrNarrow
	}
	emin := uint64(binary.LittleEndian.Uint16(src))
	heads := src[2+6*n:]
	if emin < 1 || emin > narrowMaxEmin || (n%4 != 0 && heads[len(heads)-1]>>(10*n%8) != 0) {
		return ErrNarrow
	}
	// First pass, over the heads alone: which codes occur. A partial last
	// group reads zero heads, code 0, for the values it does not have.
	var seen uint32
	for g := 0; 5*g < len(heads); g++ {
		word := headWord(heads, g)
		seen |= 1<<(word>>4&31) | 1<<(word>>14&31) | 1<<(word>>24&31) | 1<<(word>>34&31)
	}
	if (seen&^1 == 0 && emin != 1) || (seen&^1 != 0 && seen&2 == 0) {
		return ErrNarrow
	}
	top := narrowTops(emin)
	full := n &^ 3
	for i := 0; i < full; i += 4 {
		// Eight bytes from each value's six: the last value's two extra
		// bytes are heads, and the mask drops them.
		s := src[2+6*i : 2+6*i+26]
		word := headWord(heads, i/4)
		d := dst[i : i+4 : i+4]
		d[0] = narrowValue(&top, binary.LittleEndian.Uint64(s), word)
		d[1] = narrowValue(&top, binary.LittleEndian.Uint64(s[6:]), word>>10)
		d[2] = narrowValue(&top, binary.LittleEndian.Uint64(s[12:]), word>>20)
		d[3] = narrowValue(&top, binary.LittleEndian.Uint64(s[18:]), word>>30)
	}
	if full < n {
		word := headWord(heads, full/4)
		for j := range dst[full:] {
			dst[full+j] = narrowValue(&top, binary.LittleEndian.Uint64(src[2+6*(full+j):]), word>>(10*j))
		}
	}
	return nil
}

// narrowTops is sign<<63 | exponent<<52 for each sign<<5 | code, under emin.
func narrowTops(emin uint64) (top [64]uint64) {
	for c := uint64(1); c < 32; c++ {
		top[c] = (emin + c - 1) << 52
	}
	for c := range 32 {
		top[32+c] = 1<<63 | top[c]
	}
	return top
}

// narrowValue is the value whose low 48 mantissa bits are those of low and
// whose head is the low 10 bits of h.
func narrowValue(top *[64]uint64, low, h uint64) float64 {
	return math.Float64frombits(top[h>>4&63] | (h&0xF)<<48 | low&(1<<48-1))
}

// headWord is the 40 bits of head group g: the heads of values 4g…4g+3,
// with zeros for the values a last, partial group does not have.
func headWord(heads []byte, g int) uint64 {
	p := heads[5*g:]
	if len(p) >= 5 {
		return uint64(binary.LittleEndian.Uint32(p)) | uint64(p[4])<<32
	}
	var word uint64
	for k, c := range p {
		word |= uint64(c) << (8 * k)
	}
	return word
}

// The coded narrow form: the narrow form with its exponent codes under a
// canonical Huffman code built for the payload (huffmanCode, over the 32
// codes). A noised activation's exponent codes carry under 3 of their 5 bits.
// The layout, little-endian:
//
//	[u16 emin][6n bytes: mantissa bits 0–47][⌈5n/8⌉ bytes: 5-bit tails]
//	[code stream][16 bytes: the code's length table]
//
// Tail i is sign<<4 | mantissa bits 48–51, at bits 5i…5i+4 of the tail bytes
// read as one little-endian bit string, and the bits after the last tail are
// zero; the stream holds the n exponent codes in order, zero-padded to a
// whole byte. emin, the mantissa bytes and the codes are the narrow form's.
// The table comes last so that every field before the stream sits at an
// offset n alone gives. AppendDense takes the form only when it is shorter
// than the narrow one; that makes the form one spelling too:
// DecodeCodedNarrow accepts exactly what AppendDense writes in it.

// codedNarrowLen is the length of n values in the coded narrow form whose
// code stream takes bits bits.
func codedNarrowLen(n int, bits uint64) int { return 2 + 6*n + (5*n+7)/8 + int((bits+7)/8) + 16 }

// DenseForm is one of the three forms AppendDense writes a dense payload in.
type DenseForm uint8

const (
	FormRaw         DenseForm = iota // AppendFloats' raw float64 words
	FormNarrow                       // AppendNarrow's narrow form
	FormCodedNarrow                  // the coded narrow form
)

// AppendDense appends data to b in the shortest of the raw, narrow and
// coded narrow forms and reports which it took. A payload the coded form
// can be shorter for (35 values or more) takes one pass that writes that
// form's fields and counts the exponent codes; should its code not pay
// after all, the narrow form is written over it.
func AppendDense(b []byte, data []float64) ([]byte, DenseForm) {
	n := len(data)
	if codedNarrowLen(n, uint64(n)) >= NarrowLen(n) { // every code takes a bit at least
		if b, ok := AppendNarrow(b, data); ok {
			return b, FormNarrow
		}
		return AppendFloats(b, data), FormRaw
	}
	off := len(b)
	var counts [4][32]uint32
	b, codes, ok := appendCodedFields(b, data, &counts)
	if !ok {
		return AppendFloats(b, data), FormRaw
	}
	for v := range counts[0] {
		counts[0][v] += counts[1][v] + counts[2][v] + counts[3][v]
	}
	var c huffmanCode
	bits := c.Build(counts[0][:])
	if codedNarrowLen(n, bits) >= NarrowLen(n) {
		b, _ = AppendNarrow(b[:off], data)
		return b, FormNarrow
	}
	size := int((bits + 7) / 8)
	c.Encode(b[len(b):len(b)+size+8], codes)
	return c.AppendTable(b[:len(b)+size], 32), FormCodedNarrow
}

// appendCodedFields appends to b the fields of data's coded narrow form
// that come before the code stream — emin, the mantissa bytes and the tails
// — and returns the exponent codes, one a byte, which it gathers past the
// room the form can take, and counts: value i's in counts[i%4], so that a
// run of one code does not chain every increment through one counter. It
// refuses what AppendNarrow refuses, returning b's len(b) bytes as they were.
// data holds eight values or more.
func appendCodedFields(b []byte, data []float64, counts *[4][32]uint32) ([]byte, []byte, bool) {
	n := len(data)
	emin := leastExponent(data)
	if emin > narrowMaxEmin {
		return b, nil, false
	}
	emin = max(emin, 1) // 1 when every exponent is 0
	off, size := len(b), 2+6*n+(5*n+7)/8
	// The codes go past the longest the form can be, the narrow form's
	// length, and eight bytes of slack: every store below is a whole word.
	room := NarrowLen(n) + 8
	b = slices.Grow(b, room+n+8)[:off+size]
	codes := b[off+room : off+room+n+8]
	binary.LittleEndian.PutUint16(b[off:], uint16(emin))
	low, tails := b[off+2:off+room], b[off+2+6*n:off+room]
	base := int64(emin-1) << 4
	var over uint64 // as in AppendNarrow
	full := n &^ 7
	for i := 0; i < full; i += 8 {
		d := data[i : i+8 : i+8]
		l := low[6*i : 6*i+50]
		var t, k uint64
		for h := 0; h < 8; h += 4 {
			x0, x1, x2, x3 := math.Float64bits(d[h]), math.Float64bits(d[h+1]), math.Float64bits(d[h+2]), math.Float64bits(d[h+3])
			// Each word's top two bytes land on the next value, which
			// overwrites them, or, for the last value, on the first tails.
			binary.LittleEndian.PutUint64(l[6*h:], x0)
			binary.LittleEndian.PutUint64(l[6*h+6:], x1)
			binary.LittleEndian.PutUint64(l[6*h+12:], x2)
			binary.LittleEndian.PutUint64(l[6*h+18:], x3)
			c0, c1, c2, c3 := narrowCode(x0, base), narrowCode(x1, base), narrowCode(x2, base), narrowCode(x3, base)
			over |= c0 | c1 | c2 | c3
			counts[0][c0>>4&31]++
			counts[1][c1>>4&31]++
			counts[2][c2>>4&31]++
			counts[3][c3>>4&31]++
			t |= (codedTail(x0, c0) | codedTail(x1, c1)<<5 | codedTail(x2, c2)<<10 | codedTail(x3, c3)<<15) << (5 * h)
			k |= (c0>>4&31 | (c1>>4&31)<<8 | (c2>>4&31)<<16 | (c3>>4&31)<<24) << (8 * h)
		}
		binary.LittleEndian.PutUint64(tails[5*i/8:], t)
		binary.LittleEndian.PutUint64(codes[i:], k)
	}
	if full < n {
		var t, k uint64
		for j, v := range data[full:] {
			x := math.Float64bits(v)
			binary.LittleEndian.PutUint64(low[6*(full+j):], x)
			c := narrowCode(x, base)
			over |= c
			counts[j&3][c>>4&31]++
			t |= codedTail(x, c) << (5 * j)
			k |= (c >> 4 & 31) << (8 * j)
		}
		binary.LittleEndian.PutUint64(tails[5*full/8:], t)
		binary.LittleEndian.PutUint64(codes[full:], k)
	}
	if over >= 32<<4 {
		return b[:off], nil, false
	}
	// Restore the two tail bytes the last value's store ran over.
	var first uint64
	for j, v := range data[:8] {
		x := math.Float64bits(v)
		first |= codedTail(x, narrowCode(x, base)) << (5 * j)
	}
	tails[0], tails[1] = byte(first), byte(first>>8)
	return b, codes[:n], true
}

// codedTail is the 5-bit tail of value x, whose code and mantissa bits are
// c: sign<<4 | mantissa bits 48–51.
func codedTail(x, c uint64) uint64 { return x>>59&0x10 | c&0xF }

// DecodeCodedNarrow fills dst from src, the coded narrow form of len(dst)
// values, decoding with d, and returns ErrNarrow, leaving dst untouched,
// when src is not exactly what AppendDense writes in that form for some
// len(dst) values: a wrong length, a length table no encoder writes or not
// the one the decoded codes give, a code stream that breaks off or runs on,
// an emin that is not the least exponent present, a nonzero bit after the
// last tail, or a payload the narrow form would hold in as many bytes.
func DecodeCodedNarrow(dst []float64, src []byte, d *HuffmanDecoder) error {
	n := len(dst)
	if !DenseFits(FormCodedNarrow, n, len(src)) {
		return ErrNarrow
	}
	emin := uint64(binary.LittleEndian.Uint16(src))
	tails := src[2+6*n : 2+6*n+(5*n+7)/8]
	if emin < 1 || emin > narrowMaxEmin || (n%8 != 0 && tails[len(tails)-1]>>(5*n%8) != 0) {
		return ErrNarrow
	}
	var c huffmanCode
	if c.ReadTable(src[len(src)-16:]) != nil {
		return ErrNarrow
	}
	d.codes = slices.Grow(d.codes[:0], n)[:n]
	if c.Decode(d.codes, src[2+6*n+len(tails):len(src)-16], d) != nil {
		return ErrNarrow
	}
	var t [4][32]uint32
	i := 0
	for ; i+8 <= n; i += 8 {
		k := binary.LittleEndian.Uint64(d.codes[i:])
		t[0][k&31]++
		t[1][k>>8&31]++
		t[2][k>>16&31]++
		t[3][k>>24&31]++
		t[0][k>>32&31]++
		t[1][k>>40&31]++
		t[2][k>>48&31]++
		t[3][k>>56&31]++
	}
	for _, k := range d.codes[i:] {
		t[0][k&31]++
	}
	var counts [32]uint32
	var seen uint32
	for v := range counts {
		if counts[v] = t[0][v] + t[1][v] + t[2][v] + t[3][v]; counts[v] > 0 {
			seen |= 1 << v
		}
	}
	var want huffmanCode
	want.Build(counts[:])
	if (seen&^1 == 0 && emin != 1) || (seen&^1 != 0 && seen&2 == 0) || want.lens != c.lens {
		return ErrNarrow
	}
	top := narrowTops(emin)
	full := n &^ 7
	for i := 0; i < full; i += 8 {
		s := src[2+6*i : 2+6*i+50]
		t, k := headWord(tails, i/8), binary.LittleEndian.Uint64(d.codes[i:])
		dd := dst[i : i+8 : i+8]
		dd[0] = narrowValue(&top, binary.LittleEndian.Uint64(s), codedHead(t, k))
		dd[1] = narrowValue(&top, binary.LittleEndian.Uint64(s[6:]), codedHead(t>>5, k>>8))
		dd[2] = narrowValue(&top, binary.LittleEndian.Uint64(s[12:]), codedHead(t>>10, k>>16))
		dd[3] = narrowValue(&top, binary.LittleEndian.Uint64(s[18:]), codedHead(t>>15, k>>24))
		dd[4] = narrowValue(&top, binary.LittleEndian.Uint64(s[24:]), codedHead(t>>20, k>>32))
		dd[5] = narrowValue(&top, binary.LittleEndian.Uint64(s[30:]), codedHead(t>>25, k>>40))
		dd[6] = narrowValue(&top, binary.LittleEndian.Uint64(s[36:]), codedHead(t>>30, k>>48))
		dd[7] = narrowValue(&top, binary.LittleEndian.Uint64(s[42:]), codedHead(t>>35, k>>56))
	}
	if full < n {
		t := headWord(tails, full/8)
		for j, k := range d.codes[full:] {
			dst[full+j] = narrowValue(&top, binary.LittleEndian.Uint64(src[2+6*(full+j):]), codedHead(t>>(5*j), uint64(k)))
		}
	}
	return nil
}

// codedHead is the narrow form's head of the value whose tail is the low 5
// bits of t and whose exponent code is the low byte of k.
func codedHead(t, k uint64) uint64 { return t&0x10<<5 | k&0xFF<<4 | t&0xF }

// DenseFits reports whether size bytes can be n values in form: the bound
// a receiver holds a payload to before it sizes anything from n. A coded
// narrow payload has its fixed fields, at least one bit a code, and fewer
// bytes than the narrow form.
func DenseFits(form DenseForm, n, size int) bool {
	switch form {
	case FormRaw:
		return size == 8*n
	case FormNarrow:
		return n >= 4 && size == NarrowLen(n)
	case FormCodedNarrow:
		return size >= codedNarrowLen(n, uint64(n)) && size < NarrowLen(n)
	}
	return false
}

// DecodeDense fills dst from src, len(dst) values in form, decoding a coded
// narrow payload with d. src holds 8·len(dst) bytes in the raw form, which
// has no refusal.
func DecodeDense(dst []float64, src []byte, form DenseForm, d *HuffmanDecoder) error {
	switch form {
	case FormNarrow:
		return DecodeNarrow(dst, src)
	case FormCodedNarrow:
		return DecodeCodedNarrow(dst, src, d)
	}
	DecodeFloats(dst, src)
	return nil
}

// The artifact container: what a checkpoint (nn.Save) and a noise file
// (core.EncodeNoiseSource) are made of. A file is an ASCII magic line, then
// fields in a fixed order, all little-endian: u32 counts and dimensions,
// u16-length-prefixed names, floats in the raw dense form, raw 4-byte sketch
// knots and int32 orders. The Append functions write the fields; a Reader
// cuts them off the front of the file's bytes, and matches every declared
// count against the bytes that remain before its caller allocates from it
// (DESIGN §5k has the layouts).

// AppendName appends s behind its u16 length. Names are the program's own
// (a network, a parameter, a noise mode), so one the field cannot hold is a
// bug.
func AppendName(b []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		panic(fmt.Sprintf("wire: name of %d bytes does not fit an artifact's u16 length", len(s)))
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// AppendShape appends shape as a u32 rank and that many u32 dimensions.
// Shapes are the program's own, so one the Reader would refuse is a bug.
func AppendShape(b []byte, shape []int) []byte {
	if len(shape) > MaxRank {
		panic(fmt.Sprintf("wire: rank %d exceeds an artifact's limit of %d", len(shape), MaxRank))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(shape)))
	for _, d := range shape {
		if d < 0 || d > math.MaxInt32 {
			panic(fmt.Sprintf("wire: dimension %d does not fit an artifact", d))
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(d))
	}
	return b
}

// ErrArtifact is what every Reader failure wraps: the bytes are not the
// artifact the magic line names, or the artifact contradicts itself.
var ErrArtifact = errors.New("wire: malformed artifact")

// Reader cuts fields off the front of an artifact's bytes. The first failure
// sticks: every later call returns zero values, so a decoder reads a run of
// fields and checks Err once, before it uses any of them to allocate.
type Reader struct {
	b   []byte
	err error
}

// NewReader reads file, which must start with the magic line.
func NewReader(file []byte, magic string) *Reader {
	r := &Reader{b: file}
	if len(file) < len(magic) || string(file[:len(magic)]) != magic {
		r.fail("no %q header", magic)
		return r
	}
	r.b = file[len(magic):]
	return r
}

// Err is the first failure, nil while every field read so far was there.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrArtifact, fmt.Sprintf(format, args...))
	}
}

// Take cuts n items of size bytes each: the one place a declared extent
// meets the bytes present. The product is never formed before it is known to
// fit what remains.
func (r *Reader) Take(n, size int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || size < 0 || (size > 0 && n > len(r.b)/size) {
		r.fail("%d items of %d bytes declared with %d bytes left", n, size, len(r.b))
		return nil
	}
	p := r.b[:n*size]
	r.b = r.b[n*size:]
	return p
}

// U32 reads one u32.
func (r *Reader) U32() uint32 {
	if p := r.Take(1, 4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

// F64 reads one float64.
func (r *Reader) F64() float64 {
	if p := r.Take(1, 8); p != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(p))
	}
	return 0
}

// Count reads a u32 count of records of items × size bytes each (both
// positive) and fails unless that many can still follow, so the count is safe
// to allocate from: it is bounded by the bytes present, not by what they say.
// The record size is divided out, never multiplied up: no items × size wraps.
func (r *Reader) Count(items, size int) int {
	n := r.U32()
	if r.err == nil && uint64(n) > uint64(len(r.b)/size/items) {
		r.fail("%d records of %d × %d bytes declared with %d bytes left", n, items, size, len(r.b))
		return 0
	}
	return int(n)
}

// Name reads a u16-length-prefixed name; the result aliases the file.
func (r *Reader) Name() []byte {
	if p := r.Take(1, 2); p != nil {
		return r.Take(int(binary.LittleEndian.Uint16(p)), 1)
	}
	return nil
}

// Shape reads a rank and its dimensions and returns them with their volume.
// It fails for a rank above MaxRank, a dimension above MaxInt32 (a negative
// one, to a writer that stored an int32) and a volume that does not fit an
// int (CheckedVolume): the product cannot wrap round to a count the file
// does carry.
func (r *Reader) Shape() (shape []int, vol int) {
	rank := r.U32()
	if r.err == nil && rank > MaxRank {
		r.fail("rank %d exceeds %d", rank, MaxRank)
	}
	dims := r.Take(int(rank), 4)
	if r.err != nil {
		return nil, 0
	}
	shape = make([]int, rank)
	for i := range shape {
		d := binary.LittleEndian.Uint32(dims[4*i:])
		if d > math.MaxInt32 {
			r.fail("dimension %d is %d", i, d)
			return nil, 0
		}
		shape[i] = int(d)
	}
	vol, ok := CheckedVolume(shape, math.MaxInt)
	if !ok {
		r.fail("shape %v has no representable volume", shape)
		return nil, 0
	}
	return shape, vol
}

// Close reports the first failure, or that bytes follow the last field: an
// artifact has one spelling, and it ends where its fields do.
func (r *Reader) Close() error {
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d bytes after the last field", len(r.b))
	}
	return r.err
}

// ReadAll reads r to its end. A reader that can say how much it holds (a
// bytes.Reader or Buffer, a file) is read into one buffer of that size, the
// way os.ReadFile does it; the hint only sizes the first buffer, so a wrong
// one costs a copy, never a wrong result.
func ReadAll(r io.Reader) ([]byte, error) {
	size := 0
	switch v := r.(type) {
	case interface{ Len() int }:
		size = v.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() && fi.Size() < math.MaxInt32 {
			size = int(fi.Size())
		}
	}
	// One byte past the hint, so the read that finds EOF has room to fail in.
	buf := make([]byte, 0, max(size, 511)+1)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}
