package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// The module's one Huffman coder: a canonical, length-limited code over an
// alphabet of at most 256 symbols, built for one payload from that payload's
// symbol counts. The q8 coded stage codes a packed payload's byte values
// with it (an alphabet of 256) and the coded narrow form its exponent codes
// (32).
//
// A code travels as a length table: one 4-bit length per symbol — symbol 2i
// in the low nibble of table byte i, 2i+1 in the high one, 0 for a symbol
// that does not occur. The code is canonical (within a length, codes ascend
// with the symbol) and no code is longer than maxCodeLen bits; the stream
// writes each code most significant bit first and ends zero-padded to a
// whole byte.

const (
	maxCodeLen = 12                    // longest code; the decoding table has 1<<maxCodeLen entries
	fullKraft  = 1 << maxCodeLen       // Σ 2^(maxCodeLen−len) of a complete code
	oneSymbol  = 1 << (maxCodeLen - 1) // … of the one incomplete code taken: a lone symbol of length 1
)

// The coder's refusals of bytes no encoder writes. They are values, so that
// a decoder refuses without allocating.
var (
	errCodeLength = errors.New("wire: Huffman code longer than 12 bits")
	errCodeKraft  = errors.New("wire: Huffman code lengths oversubscribed or incomplete")
	errCodeStream = errors.New("wire: Huffman code stream breaks off or holds no code")
	errCodeRunOn  = errors.New("wire: Huffman code stream runs on past its last code")
)

// huffmanCode is a canonical code over an alphabet of n symbols: each
// symbol's length in bits (0 for a symbol without a code) and its bits,
// right-aligned. Every pass over the symbols stops at n, so a small alphabet
// costs what it holds.
type huffmanCode struct {
	lens [256]uint8
	bits [256]uint16
	n    int
}

// HuffmanDecoder is what decoding needs beside the code: the decoding table,
// 8 KiB, built on the first decode, and the exponent codes of a coded narrow
// payload. Whoever decodes keeps one — a server in each request state — so
// that a warm decode allocates nothing. The zero value is ready to use; one
// HuffmanDecoder decodes one payload at a time.
type HuffmanDecoder struct {
	t     *[1 << maxCodeLen]uint16 // the next bits, as many as the longest code has → symbol | length<<8, 0 where no code starts
	codes []byte
}

// Build gives the symbols whose counts counts holds (at most 256) a Huffman
// code no longer than maxCodeLen and returns the coded size in bits. The
// lengths are Moffat and Katajainen's minimum-redundancy ones; where some
// exceed maxCodeLen they are cut to it and the code is made complete again
// by lengthening the longest codes below it, the rarest symbols taking the
// longest codes. The code is one function of the counts.
func (c *huffmanCode) Build(counts []uint32) (bits uint64) {
	var keys [256]uint64 // count<<8 | symbol, of the symbols that occur
	n := 0
	for v, k := range counts {
		if k > 0 {
			keys[n] = uint64(k)<<8 | uint64(v)
			n++
		}
	}
	slices.Sort(keys[:n]) // rarest first; ties by symbol
	c.lens, c.n = [256]uint8{}, len(counts)
	if n == 1 {
		c.lens[byte(keys[0])] = 1
	} else if n > 1 {
		var depth [256]uint64
		for i, k := range keys[:n] {
			depth[i] = k >> 8
		}
		minimumRedundancy(depth[:n])
		var count [maxCodeLen + 1]int
		for _, d := range depth[:n] {
			count[min(d, maxCodeLen)]++
		}
		kraft := 0
		for l := 1; l <= maxCodeLen; l++ {
			kraft += count[l] << (maxCodeLen - l)
		}
		for ; kraft > fullKraft; kraft-- {
			count[maxCodeLen]--
			for l := maxCodeLen - 1; l > 0; l-- {
				if count[l] > 0 {
					count[l]--
					count[l+1] += 2
					break
				}
			}
		}
		i := 0
		for l := maxCodeLen; l > 0; l-- {
			for range count[l] {
				c.lens[byte(keys[i])] = uint8(l)
				i++
			}
		}
	}
	c.assign()
	for v, k := range counts {
		bits += uint64(k) * uint64(c.lens[v])
	}
	return bits
}

// minimumRedundancy turns weights in ascending order into the depths of a
// Huffman tree's leaves, in place: Moffat and Katajainen's algorithm for
// sorted input, with no allocation. len(a) ≥ 2.
func minimumRedundancy(a []uint64) {
	n := len(a)
	// Combine: a[root] walks the internal nodes built so far, which a[next]
	// records as sums and, once used, as the index of their parent.
	a[0] += a[1]
	root, leaf := 0, 2
	for next := 1; next < n-1; next++ {
		if leaf >= n || a[root] < a[leaf] {
			a[next] = a[root]
			a[root] = uint64(next)
			root++
		} else {
			a[next] = a[leaf]
			leaf++
		}
		if leaf >= n || (root < next && a[root] < a[leaf]) {
			a[next] += a[root]
			a[root] = uint64(next)
			root++
		} else {
			a[next] += a[leaf]
			leaf++
		}
	}
	// Internal nodes' depths from their parents' indices.
	a[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}
	// Leaves' depths from the number of internal nodes at each depth.
	avail, used, depth := 1, 0, uint64(0)
	root, next := n-2, n-1
	for avail > 0 {
		for root >= 0 && a[root] == depth {
			used++
			root--
		}
		for avail > used {
			a[next] = depth
			next--
			avail--
		}
		avail, used = 2*used, 0
		depth++
	}
}

// AppendTable appends the length table of the first symbols symbols (an
// even number): symbols/2 bytes.
func (c *huffmanCode) AppendTable(dst []byte, symbols int) []byte {
	for i := 0; i < symbols; i += 2 {
		dst = append(dst, c.lens[i]|c.lens[i+1]<<4)
	}
	return dst
}

// ReadTable sets the code from a length table of 2·len(table) symbols, and
// refuses lengths no encoder writes: one past maxCodeLen, or a code that is
// oversubscribed or incomplete — other than a lone symbol with a 1-bit code,
// what a payload of one symbol gets.
func (c *huffmanCode) ReadTable(table []byte) error {
	c.lens, c.n = [256]uint8{}, 2*len(table)
	var count [16]int
	for i, b := range table {
		c.lens[2*i], c.lens[2*i+1] = b&15, b>>4
		count[b&15]++
		count[b>>4]++
	}
	kraft := 0
	for l := 1; l < len(count); l++ {
		if count[l] > 0 && l > maxCodeLen {
			return errCodeLength
		}
		kraft += count[l] << max(maxCodeLen-l, 0)
	}
	if kraft != fullKraft && !(kraft == oneSymbol && count[1] == 1) {
		return errCodeKraft
	}
	c.assign()
	return nil
}

// assign gives every symbol with a length its canonical code.
func (c *huffmanCode) assign() {
	var count, next [maxCodeLen + 1]uint16
	for _, l := range c.lens[:c.n] {
		count[l]++
	}
	count[0] = 0
	for l := 1; l <= maxCodeLen; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	for v, l := range c.lens[:c.n] {
		if l > 0 {
			c.bits[v] = next[l]
			next[l]++
		}
	}
}

// Encode writes the codes of symbols to out, which holds the stream and
// eight bytes of slack past it. Every four codes (at most 48 bits) the whole
// bytes held are stored as one 8-byte word, so no branch asks how many there
// are; the bytes past them are stored again, whole, by the next.
func (c *huffmanCode) Encode(out, symbols []byte) {
	var enc [256]uint32 // bits<<4 | length
	for v, l := range c.lens[:c.n] {
		enc[v] = uint32(c.bits[v])<<4 | uint32(l)
	}
	var acc uint64 // the held bits, right-aligned; those above them are spent
	var held uint
	pos, i := 0, 0
	for ; i+4 <= len(symbols); i += 4 {
		for _, b := range symbols[i : i+4] {
			e := enc[b]
			l := uint(e & 15)
			acc = acc<<(l&63) | uint64(e>>4) // &63: a shift the compiler need not guard
			held += l
		}
		binary.BigEndian.PutUint64(out[pos:], acc<<((64-held)&63)) // four codes hold four bits at least
		pos += int(held >> 3)
		held &= 7
	}
	for _, b := range symbols[i:] {
		e := enc[b]
		l := uint(e & 15)
		acc = acc<<(l&63) | uint64(e>>4)
		held += l
	}
	binary.BigEndian.PutUint64(out[pos:], acc<<(64-held)) // the last bits, zero-padded
}

// huffReader is a position in a stream: the unread bits, most significant
// first (none past held but the stream's own), and the next byte to load.
type huffReader struct {
	acc  uint64
	held uint
	pos  int
}

// Decode decodes len(out) symbols from stream, which must end with the last
// of them: a code that is not in the table, a stream that ends early or runs
// on, and padding that is not zero are refused. The table is indexed by as
// many bits as the longest code has, so a code of short codes builds a small
// one. Four symbols are decoded per refill while eight bytes are left: a
// refill leaves at least 56 bits, and four codes take at most 48. The bits
// a refill loads past the whole bytes it counts are the next byte's own, and
// the next refill ors in the same.
func (c *huffmanCode) Decode(out, stream []byte, d *HuffmanDecoder) error {
	if d.t == nil {
		d.t = new([1 << maxCodeLen]uint16)
	}
	t := d.t
	width := uint8(1)
	for _, l := range c.lens[:c.n] {
		width = max(width, l)
	}
	clear(t[:1<<width]) // what a lone symbol's code leaves unset is no code
	for v, l := range c.lens[:c.n] {
		if l > 0 {
			lo := int(c.bits[v]) << (width - l)
			e := uint16(v) | uint16(l)<<8
			for i := range 1 << (width - l) {
				t[lo+i] = e
			}
		}
	}
	// The next width bits of r.acc; the mask, a no-op, spares the bounds check.
	shift := 64 - uint(width)
	const mask = 1<<maxCodeLen - 1
	var r huffReader
	i := 0
	for ; i+4 <= len(out) && r.pos+8 <= len(stream); i += 4 {
		r.acc |= binary.BigEndian.Uint64(stream[r.pos:]) >> (r.held & 63) // held < 64: the mask spares a guard
		k := (63 - r.held) >> 3
		r.pos += int(k)
		r.held += k << 3
		// A code that is not in the table reads as length 0 and stops the
		// stream where it is; the four lengths are checked together.
		e0 := t[r.acc>>shift&mask]
		r.acc <<= e0 >> 8 & 63 // &63: a shift the compiler need not guard
		e1 := t[r.acc>>shift&mask]
		r.acc <<= e1 >> 8 & 63
		e2 := t[r.acc>>shift&mask]
		r.acc <<= e2 >> 8 & 63
		e3 := t[r.acc>>shift&mask]
		r.acc <<= e3 >> 8 & 63
		if e0 < 1<<8 || e1 < 1<<8 || e2 < 1<<8 || e3 < 1<<8 {
			return errCodeStream
		}
		r.held -= uint(e0>>8 + e1>>8 + e2>>8 + e3>>8)
		binary.LittleEndian.PutUint32(out[i:], uint32(byte(e0))|uint32(byte(e1))<<8|uint32(byte(e2))<<16|uint32(byte(e3))<<24)
	}
	return r.finish(out[i:], stream, t, shift)
}

// finish decodes the rest of a stream into out a symbol at a time, and holds
// the stream to ending with it.
func (r huffReader) finish(out, s []byte, t *[1 << maxCodeLen]uint16, shift uint) error {
	for i := range out {
		for ; r.held <= 56 && r.pos < len(s); r.pos++ {
			r.acc |= uint64(s[r.pos]) << (56 - r.held)
			r.held += 8
		}
		e := t[r.acc>>shift&(1<<maxCodeLen-1)]
		l := uint(e >> 8)
		if l-1 >= r.held { // no code starts here (l = 0 wraps), or it runs past the stream
			return errCodeStream
		}
		out[i] = byte(e)
		r.acc <<= l & 63
		r.held -= l
	}
	if rest := r.held + 8*uint(len(s)-r.pos); rest >= 8 || r.acc != 0 {
		return errCodeRunOn
	}
	return nil
}

// The q8 coded stage: the packed levels quantize.Scheme.AppendPacked writes,
// under a canonical Huffman code over byte values built for that payload
// alone. A noised activation quantized inside quantize.Fit's ±4σ range puts
// its levels on a Laplace-like histogram, so an 8-bit payload carries well
// under 8 bits per byte. The form is one byte, then what it names:
//
//	0  stored: the packed bytes as they are
//	1  coded:  the code's 128-byte length table, then the code stream
//
// The encoder takes the stored form whenever the coded one would not be
// smaller, so a payload grows by one byte at most. The packed length is not
// carried: the receiver knows it from the payload's shape
// (quantize.Scheme.WireBytes).
// Unlike the dense forms, it decodes spellings it never writes (DESIGN §5j).

const (
	formStored, formCoded byte = 0, 1
	codedHeader                = 1 + 256/2 // form byte and length table
)

// ErrCoded is what every refusal of a coded payload wraps.
var ErrCoded = errors.New("wire: malformed coded payload")

// countBytes adds b's byte values to h, the counts AppendCoded builds its
// code from. Four tables take every fourth byte each, so a run of one value —
// the common case at the centre of a noised activation — does not chain
// every increment through one counter.
func countBytes(h *[256]uint32, b []byte) {
	var t [3][256]uint32
	i := 0
	for ; i+4 <= len(b); i += 4 {
		h[b[i]]++
		t[0][b[i+1]]++
		t[1][b[i+2]]++
		t[2][b[i+3]]++
	}
	for _, v := range b[i:] {
		h[v]++
	}
	for v := range h {
		h[v] += t[0][v] + t[1][v] + t[2][v]
	}
}

// AppendCoded appends the coded form of packed to dst, which may be a buffer
// kept from an earlier call.
func AppendCoded(dst, packed []byte) []byte {
	var h [256]uint32
	countBytes(&h, packed)
	var c huffmanCode
	size := codedHeader + int((c.Build(h[:])+7)/8)
	if size >= 1+len(packed) {
		return append(append(dst, formStored), packed...)
	}
	// One growth for the form byte, the table, the stream and Encode's eight
	// bytes of slack, which lie past the payload.
	start := len(dst)
	dst = c.AppendTable(append(slices.Grow(dst, size+8), formCoded), 256)[:start+size]
	c.Encode(dst[start+codedHeader:start+size+8], packed)
	return dst
}

// CheckCoded is the bound a receiver holds a coded payload to before it
// sizes anything from n, the packed length the payload's shape declares: a
// stored payload is exactly n bytes, and a coded one spends at least one bit
// on every byte. It is AppendDecoded's first step.
func CheckCoded(coded []byte, n int) error {
	switch {
	case n < 0:
		return fmt.Errorf("%w: %d packed bytes", ErrCoded, n)
	case len(coded) == 0:
		return fmt.Errorf("%w: empty coded payload", ErrCoded)
	case coded[0] == formStored:
		if len(coded)-1 != n {
			return fmt.Errorf("%w: %d stored bytes for %d", ErrCoded, len(coded)-1, n)
		}
	case coded[0] == formCoded:
		if len(coded) < codedHeader || n > 8*(len(coded)-codedHeader) {
			return fmt.Errorf("%w: %d coded bytes cannot hold %d", ErrCoded, len(coded), n)
		}
	default:
		return fmt.Errorf("%w: payload form %d", ErrCoded, coded[0])
	}
	return nil
}

// AppendDecoded appends the n packed bytes a coded payload holds to dst,
// which may be a buffer kept from an earlier call, decoding with d — kept by
// whoever decodes; a server keeps one in each request state. The payload
// comes off the network: a code the encoder cannot have written — lengths
// past the coder's limit, an oversubscribed or incomplete code, a stream that
// ends early or runs on, padding that is not zero — is ErrCoded, and dst is
// returned as it was. Nothing is sized from n before the length table has
// been checked.
func AppendDecoded(d *HuffmanDecoder, dst, coded []byte, n int) ([]byte, error) {
	if err := CheckCoded(coded, n); err != nil {
		return dst, err
	}
	if coded[0] == formStored {
		return append(dst, coded[1:]...), nil
	}
	var c huffmanCode
	if err := c.ReadTable(coded[1:codedHeader]); err != nil {
		return dst, fmt.Errorf("%w: %w", ErrCoded, err)
	}
	start := len(dst)
	grown := slices.Grow(dst, n)[:start+n]
	if err := c.Decode(grown[start:], coded[codedHeader:], d); err != nil {
		return dst, fmt.Errorf("%w: %w", ErrCoded, err)
	}
	return grown, nil
}
