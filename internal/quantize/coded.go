package quantize

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// The coded form of a packed payload: the bytes AppendPacked writes, under a
// canonical Huffman code over byte values built for that payload alone. A
// noised activation quantized inside Fit's ±4σ range puts its levels on a
// Laplace-like histogram, so an 8-bit payload carries well under 8 bits per
// byte. The form is one byte, then what it names:
//
//	0  stored: the packed bytes as they are
//	1  coded:  128 bytes of code lengths, then the code stream
//
// The length table holds one 4-bit length per byte value — value 2i in the
// low nibble of table byte i, 2i+1 in the high one, 0 for a value that does
// not occur. The code is canonical (within a length, codes ascend with the
// value) and no code is longer than maxCodeLen bits; the stream writes each
// code most significant bit first and ends zero-padded to a whole byte. The
// encoder takes the stored form whenever the coded one would not be smaller,
// so a payload grows by one byte at most. The packed length is not carried:
// the receiver knows it from the payload's shape (Scheme.WireBytes).

const (
	formStored byte = 0
	formCoded  byte = 1

	maxCodeLen  = 12                    // longest code; the decoder's table has 1<<maxCodeLen entries
	codedHeader = 1 + 256/2             // form byte and length table
	fullKraft   = 1 << maxCodeLen       // Σ 2^(maxCodeLen−len) of a complete code
	oneValue    = 1 << (maxCodeLen - 1) // … of the one incomplete code taken: a lone value of length 1
)

// histogram counts the byte values of a packed payload: AppendCoded builds
// its code from the counts.
type histogram [256]uint32

// count adds b's bytes to h. Four tables take every fourth byte each, so a
// run of one value — the common case at the centre of a noised activation —
// does not chain every increment through one counter.
func (h *histogram) count(b []byte) {
	var t [3]histogram
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

// code is a canonical code over byte values: each value's length in bits (0
// for a value without a code) and its bits, right-aligned.
type code struct {
	lens [256]uint8
	bits [256]uint16
}

// AppendCoded appends the coded form of packed to dst, which may be a buffer
// kept from an earlier call.
func AppendCoded(dst, packed []byte) []byte {
	var h histogram
	h.count(packed)
	var c code
	size := codedHeader + int((c.build(&h)+7)/8)
	if size >= 1+len(packed) {
		return append(append(dst, formStored), packed...)
	}
	start := len(dst)
	dst = slices.Grow(dst, size+8)[:start+size]
	out := dst[start : start+size+8] // write's eight bytes of slack lie past the payload
	out[0] = formCoded
	for i := range codedHeader - 1 {
		out[1+i] = c.lens[2*i] | c.lens[2*i+1]<<4
	}
	c.write(out[codedHeader:], packed)
	return dst
}

// CheckCoded is the bound a receiver holds a coded payload to before it
// sizes anything from n, the packed length the payload's shape declares: a
// stored payload is exactly n bytes, and a coded one spends at least one bit
// on every byte. It is Decoder.AppendDecoded's first step.
func CheckCoded(coded []byte, n int) error {
	switch {
	case n < 0:
		return fmt.Errorf("%w: %d packed bytes", ErrBadPayload, n)
	case len(coded) == 0:
		return fmt.Errorf("%w: empty coded payload", ErrBadPayload)
	case coded[0] == formStored:
		if len(coded)-1 != n {
			return fmt.Errorf("%w: %d stored bytes for %d", ErrBadPayload, len(coded)-1, n)
		}
	case coded[0] == formCoded:
		if len(coded) < codedHeader || n > 8*(len(coded)-codedHeader) {
			return fmt.Errorf("%w: %d coded bytes cannot hold %d", ErrBadPayload, len(coded), n)
		}
	default:
		return fmt.Errorf("%w: payload form %d", ErrBadPayload, coded[0])
	}
	return nil
}

// Decoder decodes coded payloads. It is the decoding table, 8 KiB, kept by
// whoever decodes — a server keeps one in each request state — so that a
// request's goroutine decodes on a small stack with nothing to build. The
// zero value is ready to use; one Decoder decodes one payload at a time.
type Decoder struct {
	t decodeTable
}

// AppendDecoded appends the n packed bytes a coded payload holds to dst,
// which may be a buffer kept from an earlier call. The payload comes off the
// network: a code the encoder cannot have written — lengths past maxCodeLen,
// an oversubscribed or incomplete code, a stream that ends early or runs on,
// padding that is not zero — is ErrBadPayload, and dst is returned as it was.
// Nothing is sized from n before the length table has been checked.
func (d *Decoder) AppendDecoded(dst, coded []byte, n int) ([]byte, error) {
	if err := CheckCoded(coded, n); err != nil {
		return dst, err
	}
	if coded[0] == formStored {
		return append(dst, coded[1:]...), nil
	}
	var c code
	for i, b := range coded[1:codedHeader] {
		c.lens[2*i], c.lens[2*i+1] = b&15, b>>4
	}
	if err := c.check(); err != nil {
		return dst, err
	}
	c.assign()
	start := len(dst)
	grown := slices.Grow(dst, n)[:start+n]
	if err := c.read(grown[start:], coded[codedHeader:], &d.t); err != nil {
		return dst, err
	}
	return grown, nil
}

// build gives the values h counts a Huffman code no longer than maxCodeLen
// and returns the coded size in bits. The lengths are Moffat and
// Katajainen's minimum-redundancy ones; where some exceed maxCodeLen they are
// cut to it and the code is made complete again by lengthening the longest
// codes below it, the rarest values taking the longest codes.
func (c *code) build(h *histogram) (bits uint64) {
	var keys [256]uint64 // count<<8 | value, of the values that occur
	n := 0
	for v, k := range h {
		if k > 0 {
			keys[n] = uint64(k)<<8 | uint64(v)
			n++
		}
	}
	slices.Sort(keys[:n]) // rarest first; ties by value, so the code is one function of h
	c.lens = [256]uint8{}
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
	for v, k := range h {
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

// check refuses lengths no encoder of this form writes: one past
// maxCodeLen, or a code that is oversubscribed or incomplete — other than a
// lone value with a 1-bit code, what a payload of one byte value gets.
func (c *code) check() error {
	var count [16]int
	for _, l := range c.lens {
		count[l]++
	}
	kraft := 0
	for l := 1; l < len(count); l++ {
		if count[l] > 0 && l > maxCodeLen {
			return fmt.Errorf("%w: code length %d", ErrBadPayload, l)
		}
		kraft += count[l] << max(maxCodeLen-l, 0)
	}
	if kraft != fullKraft && !(kraft == oneValue && count[1] == 1) {
		return fmt.Errorf("%w: code of %d/%d", ErrBadPayload, kraft, fullKraft)
	}
	return nil
}

// assign gives every value with a length its canonical code.
func (c *code) assign() {
	var count, next [maxCodeLen + 1]uint16
	for _, l := range c.lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l <= maxCodeLen; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	for v, l := range c.lens {
		if l > 0 {
			c.bits[v] = next[l]
			next[l]++
		}
	}
}

// write codes packed into out, which holds the stream and eight bytes of
// slack past it. Every four codes (at most 48 bits) the whole bytes held are
// stored as one 8-byte word, so no branch asks how many there are; the bytes
// past them are stored again, whole, by the next.
func (c *code) write(out, packed []byte) {
	var enc [256]uint32 // bits<<4 | length
	for v, l := range c.lens {
		enc[v] = uint32(c.bits[v])<<4 | uint32(l)
	}
	var acc uint64 // the held bits, right-aligned; those above them are spent
	var held uint
	pos, i := 0, 0
	for ; i+4 <= len(packed); i += 4 {
		for _, b := range packed[i : i+4] {
			e := enc[b]
			l := uint(e & 15)
			acc = acc<<(l&63) | uint64(e>>4) // &63: a shift the compiler need not guard
			held += l
		}
		binary.BigEndian.PutUint64(out[pos:], acc<<((64-held)&63)) // four codes hold four bits at least
		pos += int(held >> 3)
		held &= 7
	}
	for _, b := range packed[i:] {
		e := enc[b]
		l := uint(e & 15)
		acc = acc<<(l&63) | uint64(e>>4)
		held += l
	}
	binary.BigEndian.PutUint64(out[pos:], acc<<(64-held)) // the last bits, zero-padded
}

// decodeTable maps the next maxCodeLen bits of a stream to the value whose
// code starts them and that code's length: value | length<<8, 0 where no
// code starts.
type decodeTable [1 << maxCodeLen]uint16

// reader is a position in the stream: the unread bits, most significant
// first (none past held but the stream's own), and the next byte to load.
type reader struct {
	acc  uint64
	held uint
	pos  int
}

// read decodes len(out) values from stream. Four values are decoded per
// refill while eight bytes are left: a refill leaves at least 56 bits, and
// four codes take at most 48. The bits a refill loads past the whole bytes
// it counts are the next byte's own, and the next refill ors in the same.
func (c *code) read(out, stream []byte, t *decodeTable) error {
	clear(t[:]) // what a lone value's code leaves unset is no code
	for v, l := range c.lens {
		if l > 0 {
			lo := int(c.bits[v]) << (maxCodeLen - l)
			e := uint16(v) | uint16(l)<<8
			for i := range 1 << (maxCodeLen - l) {
				t[lo+i] = e
			}
		}
	}
	var r reader
	i := 0
	for ; i+4 <= len(out) && r.pos+8 <= len(stream); i += 4 {
		r.acc |= binary.BigEndian.Uint64(stream[r.pos:]) >> (r.held & 63) // held < 64: the mask spares a guard
		k := (63 - r.held) >> 3
		r.pos += int(k)
		r.held += k << 3
		w := out[i : i+4 : i+4]
		for j := range 4 {
			e := t[r.acc>>(64-maxCodeLen)]
			l := uint(e >> 8)
			if l == 0 {
				return fmt.Errorf("%w: no code starts at value %d", ErrBadPayload, i+j)
			}
			w[j] = byte(e)
			r.acc <<= l & 63 // &63: a shift the compiler need not guard
			r.held -= l
		}
	}
	return r.finish(out[i:], stream, t)
}

// finish decodes the rest of a stream into out a byte at a time, and holds
// the stream to ending with it.
func (r reader) finish(out, s []byte, t *decodeTable) error {
	for i := range out {
		for ; r.held <= 56 && r.pos < len(s); r.pos++ {
			r.acc |= uint64(s[r.pos]) << (56 - r.held)
			r.held += 8
		}
		e := t[r.acc>>(64-maxCodeLen)]
		l := uint(e >> 8)
		if l-1 >= r.held { // no code starts here (l = 0 wraps), or it runs past the stream
			return fmt.Errorf("%w: code stream breaks off %d values before its end", ErrBadPayload, len(out)-i)
		}
		out[i] = byte(e)
		r.acc <<= l & 63
		r.held -= l
	}
	if rest := r.held + 8*uint(len(s)-r.pos); rest >= 8 || r.acc != 0 {
		return fmt.Errorf("%w: %d bits past the last code", ErrBadPayload, rest)
	}
	return nil
}
