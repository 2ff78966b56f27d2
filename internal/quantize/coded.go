package quantize

import (
	"fmt"
	"slices"

	"shredder/internal/tensor"
)

// The coded form of a packed payload: the bytes AppendPacked writes, under a
// canonical Huffman code over byte values built for that payload alone
// (tensor.HuffmanCode, the module's one coder). A
// noised activation quantized inside Fit's ±4σ range puts its levels on a
// Laplace-like histogram, so an 8-bit payload carries well under 8 bits per
// byte. The form is one byte, then what it names:
//
//	0  stored: the packed bytes as they are
//	1  coded:  the code's 128-byte length table, then the code stream
//
// The encoder takes the stored form whenever the coded one would not be smaller,
// so a payload grows by one byte at most. The packed length is not carried:
// the receiver knows it from the payload's shape (Scheme.WireBytes).

const (
	formStored byte = 0
	formCoded  byte = 1

	codedHeader = 1 + 256/2 // form byte and length table
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

// AppendCoded appends the coded form of packed to dst, which may be a buffer
// kept from an earlier call.
func AppendCoded(dst, packed []byte) []byte {
	var h histogram
	h.count(packed)
	var c tensor.HuffmanCode
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

// AppendDecoded appends the n packed bytes a coded payload holds to dst,
// which may be a buffer kept from an earlier call, decoding with d — kept by
// whoever decodes; a server keeps one in each request state. The payload
// comes off the network: a code the encoder cannot have written — lengths
// past the coder's limit, an oversubscribed or incomplete code, a stream that
// ends early or runs on, padding that is not zero — is ErrBadPayload, and dst
// is returned as it was. Nothing is sized from n before the length table has
// been checked.
func AppendDecoded(d *tensor.HuffmanDecoder, dst, coded []byte, n int) ([]byte, error) {
	if err := CheckCoded(coded, n); err != nil {
		return dst, err
	}
	if coded[0] == formStored {
		return append(dst, coded[1:]...), nil
	}
	var c tensor.HuffmanCode
	if err := c.ReadTable(coded[1:codedHeader]); err != nil {
		return dst, fmt.Errorf("%w: %w", ErrBadPayload, err)
	}
	start := len(dst)
	grown := slices.Grow(dst, n)[:start+n]
	if err := c.Decode(grown[start:], coded[codedHeader:], d); err != nil {
		return dst, fmt.Errorf("%w: %w", ErrBadPayload, err)
	}
	return grown, nil
}
