package splitrt

// The splitrt wire format: every message is one length-prefixed binary
// frame (DESIGN §5j has the byte-layout table).
//
//	[u32 body length][u8 kind][u16 header length][header][dims][strings][payload]
//
// All integers and floats are little-endian. The header of each kind is a
// run of fixed-width fields at fixed offsets; its length travels on the
// wire, and that one number is the compatibility rule: a decoder copies at
// most the bytes it knows into a zeroed header of its own size, so a longer
// header from a newer peer is skipped past and a shorter one reads as zeros.
// The encoder uses the same rule to drop the header's trailing zero bytes.
// The header's rank field counts the u32 dimensions that follow it; strings
// are u16-length-prefixed; the payload is whatever remains — dense float64
// values, in the shortest of wire.AppendDense's raw, narrow and coded
// narrow forms, or a packed payload in wire.AppendCoded's coded form.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"shredder/internal/tensor"
	"shredder/internal/wire"
)

const (
	// protoVersion rides the hello frame; a server answers any other
	// version with a rejecting ack. Version 2 carries a quantized payload
	// coded (wire.AppendCoded) where version 1 carried it packed;
	// version 3 may carry a dense payload narrow (flagNarrow), version 4
	// coded narrow (flagCodedNarrow) as well.
	protoVersion = 4

	// maxFrameBody bounds the length prefix a reader accepts (and a writer
	// emits): 64 MiB is a batch of 512 activations at the largest cut in
	// the repo. maxHandshakeBody is the tighter bound on the two handshake
	// frames, so a peer that does not speak frames at all — whose first
	// four bytes read as an arbitrary length — is refused at once.
	maxFrameBody     = 64 << 20
	maxHandshakeBody = 4 << 10
)

// Frame kinds. Zero is not a kind, so a run of zero bytes is not a frame.
const (
	kindHello byte = 1 + iota
	kindAck
	kindRequest
	kindResponse
)

// Header sizes and field offsets (bytes from the start of the header).
const (
	frameHeaderOff = 4 + 1 + 2 // length prefix, kind, header length

	helloHeaderLen = 2 // version u16
	ackHeaderLen   = 1 // ok u8

	// request: ID u64, Trace u64, flags u8, rank u8, audit member i32,
	// audit in-vivo f64, quant bits u8, lo f64, hi f64.
	reqFlagsOff      = 16
	reqRankOff       = 17
	reqMemberOff     = 18
	reqInVivoOff     = reqMemberOff + 4
	reqBitsOff       = reqInVivoOff + 8
	reqLoOff         = reqBitsOff + 1
	reqHiOff         = reqLoOff + 8
	requestHeaderLen = reqHiOff + 8

	// response: ID u64, Trace u64, flags u8, ErrKind u8, rank u8.
	respFlagsOff      = 16
	respKindOff       = 17
	respRankOff       = 18
	responseHeaderLen = respRankOff + 1
)

// Header flag bits.
const (
	flagPayload     byte = 1 << iota // a tensor follows: dimensions, then values after the strings
	flagQuant                        // request: the payload is coded packed levels
	flagAudit                        // request: an audit note is attached
	flagSampled                      // request: the note's in-vivo value was sampled
	flagNarrow                       // the dense payload is in wire.AppendNarrow's narrow form
	flagCodedNarrow                  // the dense payload is in wire.AppendDense's coded narrow form
)

// errBadFrame is what every decode failure wraps: the bytes are not a
// frame of the expected kind, or the frame contradicts itself.
var errBadFrame = errors.New("splitrt: malformed frame")

func badFrame(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errBadFrame, fmt.Sprintf(format, args...))
}

var zeroHeader [requestHeaderLen]byte

// beginFrame resets b to a frame of the given kind with placeholders for
// the two lengths and hdr zeroed header bytes for the caller to fill in.
func beginFrame(b []byte, kind byte, hdr int) []byte {
	b = append(b[:0], 0, 0, 0, 0, kind, 0, 0)
	return append(b, zeroHeader[:hdr]...)
}

// endHeader closes the header b ends with: trailing zero bytes are dropped
// (the decoder's zero fill restores them) and the length is written.
func endHeader(b []byte) []byte {
	end := len(b)
	for end > frameHeaderOff && b[end-1] == 0 {
		end--
	}
	binary.LittleEndian.PutUint16(b[5:], uint16(end-frameHeaderOff))
	return b[:end]
}

// endFrame writes the body length once everything has been appended.
func endFrame(b []byte) []byte {
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

func appendString(b []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// rankOf is a shape's rank as a header byte. Shapes are the program's own,
// so one the frame cannot declare is a bug.
func rankOf(shape []int) byte {
	if len(shape) > wire.MaxRank {
		panic(fmt.Sprintf("splitrt: rank %d exceeds the frame's limit of %d", len(shape), wire.MaxRank))
	}
	return byte(len(shape))
}

func appendDims(b []byte, shape []int) []byte {
	for _, d := range shape {
		b = binary.LittleEndian.AppendUint32(b, uint32(d))
	}
	return b
}

func (h *hello) appendFrame(b []byte) []byte {
	b = beginFrame(b, kindHello, helloHeaderLen)
	binary.LittleEndian.PutUint16(b[frameHeaderOff:], h.Version)
	b = endHeader(b)
	b = appendString(b, h.Network)
	b = appendString(b, h.CutLayer)
	return endFrame(b)
}

func (a *helloAck) appendFrame(b []byte) []byte {
	b = beginFrame(b, kindAck, ackHeaderLen)
	if a.OK {
		b[frameHeaderOff] = 1
	}
	b = endHeader(b)
	b = appendString(b, a.Err)
	return endFrame(b)
}

func (r *request) appendFrame(b []byte) []byte {
	b = beginFrame(b, kindRequest, requestHeaderLen)
	h := b[frameHeaderOff:]
	binary.LittleEndian.PutUint64(h, r.ID)
	binary.LittleEndian.PutUint64(h[8:], r.Trace)
	var flags byte
	mode := ""
	if n := r.Audit; n != nil {
		flags |= flagAudit
		if n.Sampled {
			flags |= flagSampled
		}
		mode = n.Mode
		binary.LittleEndian.PutUint32(h[reqMemberOff:], uint32(n.Member))
		binary.LittleEndian.PutUint64(h[reqInVivoOff:], math.Float64bits(n.InVivo))
	}
	var shape []int
	switch {
	case r.Activation != nil:
		flags |= flagPayload
		shape = r.Activation.Shape()
	case r.Quant != nil:
		flags |= flagPayload | flagQuant
		shape = r.Quant.Shape
		h[reqBitsOff] = byte(r.Quant.Bits)
		binary.LittleEndian.PutUint64(h[reqLoOff:], math.Float64bits(r.Quant.Lo))
		binary.LittleEndian.PutUint64(h[reqHiOff:], math.Float64bits(r.Quant.Hi))
	}
	h[reqFlagsOff], h[reqRankOff] = flags, rankOf(shape)
	b = endHeader(b)
	b = appendDims(b, shape)
	b = appendString(b, mode)
	switch {
	case r.Activation != nil:
		b = appendDense(b, r.Activation.Data())
	case r.Quant != nil:
		b = append(b, r.Quant.Coded...)
	}
	return endFrame(b)
}

func (r *response) appendFrame(b []byte) []byte {
	b = beginFrame(b, kindResponse, responseHeaderLen)
	h := b[frameHeaderOff:]
	binary.LittleEndian.PutUint64(h, r.ID)
	binary.LittleEndian.PutUint64(h[8:], r.Trace)
	h[respKindOff] = byte(r.Kind)
	var shape []int
	if r.Logits != nil {
		shape = r.Logits.Shape()
		h[respFlagsOff], h[respRankOff] = flagPayload, rankOf(shape)
	}
	b = endHeader(b)
	b = appendDims(b, shape)
	b = appendString(b, r.Err)
	if r.Logits != nil {
		b = appendDense(b, r.Logits.Data())
	}
	return endFrame(b)
}

// appendDense appends a dense payload to a frame whose header declares one,
// in the form wire.AppendDense picks, and flags a narrow or coded narrow
// one so in the header, whose flags byte the payload flag has kept from
// being trimmed. Request and response flags sit at one offset.
func appendDense(b []byte, data []float64) []byte {
	b, form := wire.AppendDense(b, data)
	switch form {
	case wire.FormNarrow:
		b[frameHeaderOff+reqFlagsOff] |= flagNarrow
	case wire.FormCodedNarrow:
		b[frameHeaderOff+reqFlagsOff] |= flagCodedNarrow
	}
	return b
}

// openFrame checks a body's kind and copies its header into hdr, which the
// caller passes zeroed and sized to the header it knows: extra bytes on the
// wire are skipped, missing ones stay zero. It returns what follows.
func openFrame(body []byte, kind byte, hdr []byte) ([]byte, error) {
	if len(body) < 3 {
		return nil, badFrame("%d-byte body", len(body))
	}
	if body[0] != kind {
		return nil, badFrame("kind %d where %d was expected", body[0], kind)
	}
	n := int(binary.LittleEndian.Uint16(body[1:]))
	if len(body) < 3+n {
		return nil, badFrame("header of %d bytes in a %d-byte body", n, len(body))
	}
	copy(hdr, body[3:3+n])
	return body[3+n:], nil
}

// cutString splits one length-prefixed string off the front of b.
func cutString(b []byte) (s, rest []byte, err error) {
	if len(b) < 2 {
		return nil, nil, badFrame("string length past the end of the frame")
	}
	n := int(binary.LittleEndian.Uint16(b))
	if len(b) < 2+n {
		return nil, nil, badFrame("string of %d bytes with %d left in the frame", n, len(b)-2)
	}
	return b[2 : 2+n], b[2+n:], nil
}

// setString stores raw in *dst, allocating only when the value changes.
func setString(dst *string, raw []byte) {
	if *dst != string(raw) {
		*dst = string(raw)
	}
}

// frameShape is a frame's decoded rank and dimensions: the shape of the
// payload and its volume.
type frameShape struct {
	rank int
	dims [wire.MaxRank]int
	vol  int
}

// cutShape splits the rank dimensions that follow a header off the front of
// b. The volume is checked while it is multiplied up (wire.CheckedVolume),
// so dimensions whose product overflows — or merely exceeds the values a
// dense frame could carry, which also keeps a few packed bits per value from
// unpacking into gigabytes — are refused before anything is sized from them.
func cutShape(rank byte, b []byte) (s frameShape, rest []byte, err error) {
	s = frameShape{rank: int(rank)}
	if s.rank > wire.MaxRank {
		return s, nil, badFrame("rank %d exceeds %d", s.rank, wire.MaxRank)
	}
	if len(b) < 4*s.rank {
		return s, nil, badFrame("%d dimensions with %d bytes left in the frame", s.rank, len(b))
	}
	for i := 0; i < s.rank; i++ {
		d := binary.LittleEndian.Uint32(b[4*i:])
		if d > math.MaxInt32 {
			return s, nil, badFrame("dimension %d", d)
		}
		s.dims[i] = int(d)
	}
	var ok bool
	if s.vol, ok = wire.CheckedVolume(s.dims[:s.rank], maxFrameBody/8); !ok {
		return s, nil, badFrame("shape %v is larger than any frame", s.list())
	}
	return s, b[4*s.rank:], nil
}

// list copies the shape out for an error message: formatting the copy does
// not move the frameShape it came from to the heap.
func (s *frameShape) list() []int {
	return append([]int(nil), s.dims[:s.rank]...)
}

// decodeFloats decodes a dense payload, in the form the header's flags say,
// into dst when dst already has the payload's shape, and into a fresh tensor
// otherwise, decoding a coded narrow one with dec; what names the payload
// ("dense shape", "logits of shape") in an error. The payload's length is
// held against the shape first.
func decodeFloats(dst *tensor.Tensor, s *frameShape, flags byte, payload []byte, what string, dec *wire.HuffmanDecoder) (*tensor.Tensor, error) {
	form := wire.FormRaw
	switch flags & (flagNarrow | flagCodedNarrow) {
	case flagNarrow:
		form = wire.FormNarrow
	case flagCodedNarrow:
		form = wire.FormCodedNarrow
	case flagNarrow | flagCodedNarrow:
		return dst, badFrame("%s %v declared narrow and coded narrow", what, s.list())
	}
	if !wire.DenseFits(form, s.vol, len(payload)) {
		return dst, badFrame("%d payload bytes for %s %v", len(payload), what, s.list())
	}
	if dst == nil || !tensor.ShapeEq(dst.Shape(), s.dims[:s.rank]) {
		dst = tensor.New(s.dims[:s.rank]...)
	}
	if err := wire.DecodeDense(dst.Data(), payload, form, dec); err != nil {
		return dst, badFrame("%s %v: %v", what, s.list(), err)
	}
	return dst, nil
}

func decodeHello(body []byte) (hello, error) {
	var hdr [helloHeaderLen]byte
	rest, err := openFrame(body, kindHello, hdr[:])
	if err != nil {
		return hello{}, err
	}
	network, rest, err := cutString(rest)
	if err != nil {
		return hello{}, err
	}
	cut, _, err := cutString(rest)
	if err != nil {
		return hello{}, err
	}
	return hello{
		Version:  binary.LittleEndian.Uint16(hdr[:]),
		Network:  string(network),
		CutLayer: string(cut),
	}, nil
}

func decodeAck(body []byte) (helloAck, error) {
	var hdr [ackHeaderLen]byte
	rest, err := openFrame(body, kindAck, hdr[:])
	if err != nil {
		return helloAck{}, err
	}
	msg, _, err := cutString(rest)
	if err != nil {
		return helloAck{}, err
	}
	return helloAck{OK: hdr[0] == 1, Err: string(msg)}, nil
}

// decodeRequest decodes a request frame into req. ID and Trace are set as
// soon as the header is open, so the caller can still answer a request
// whose payload it must refuse. What req already holds is reused where it
// fits (a tensor of the same shape, a Coded slice of enough capacity), which
// is how a request state serves one request after another without
// allocating; the payload is copied, never aliased: body is the read buffer
// and the request outlives it. A coded narrow payload is decoded with dec.
func decodeRequest(body []byte, req *request, dec *wire.HuffmanDecoder) error {
	var h [requestHeaderLen]byte
	rest, err := openFrame(body, kindRequest, h[:])
	if err != nil {
		return err
	}
	req.ID = binary.LittleEndian.Uint64(h[:])
	req.Trace = binary.LittleEndian.Uint64(h[8:])
	flags := h[reqFlagsOff]
	shape, rest, err := cutShape(h[reqRankOff], rest)
	if err != nil {
		return err
	}
	mode, payload, err := cutString(rest)
	if err != nil {
		return err
	}
	if flags&flagAudit != 0 {
		if req.Audit == nil {
			req.Audit = new(auditNote)
		}
		setString(&req.Audit.Mode, mode)
		req.Audit.Member = int32(binary.LittleEndian.Uint32(h[reqMemberOff:]))
		req.Audit.InVivo = math.Float64frombits(binary.LittleEndian.Uint64(h[reqInVivoOff:]))
		req.Audit.Sampled = flags&flagSampled != 0
	} else {
		req.Audit = nil
	}
	if flags&flagPayload == 0 {
		if len(payload) != 0 {
			return badFrame("%d payload bytes on a request that declares none", len(payload))
		}
		req.Activation, req.Quant = nil, nil
		return nil
	}
	if flags&flagQuant == 0 {
		req.Quant = nil
		req.Activation, err = decodeFloats(req.Activation, &shape, flags, payload, "dense shape", dec)
		return err
	}
	if flags&(flagNarrow|flagCodedNarrow) != 0 {
		return badFrame("a quantized payload declared narrow")
	}
	bits := int(h[reqBitsOff])
	if bits < 1 || bits > 16 {
		return badFrame("quantization at %d bits", bits)
	}
	// The packed length the shape declares is held against the coded bytes
	// before a decode step sizes anything from it.
	packed := (shape.vol*bits + 7) / 8
	if err := wire.CheckCoded(payload, packed); err != nil {
		return badFrame("%d payload bytes for shape %v at %d bits: %v", len(payload), shape.list(), bits, err)
	}
	q := req.Quant
	if q == nil {
		// One allocation holds the payload's description and its dimensions.
		fresh := new(struct {
			quantPayload
			dims [wire.MaxRank]int
		})
		q, fresh.Shape = &fresh.quantPayload, fresh.dims[:0]
	}
	q.Bits = bits
	q.Lo = math.Float64frombits(binary.LittleEndian.Uint64(h[reqLoOff:]))
	q.Hi = math.Float64frombits(binary.LittleEndian.Uint64(h[reqHiOff:]))
	q.Shape = append(q.Shape[:0], shape.dims[:shape.rank]...)
	q.Coded = append(q.Coded[:0], payload...)
	q.Packed = q.Packed[:0] // the server's decode step fills it
	req.Activation, req.Quant = nil, q
	return nil
}

// decodeResponse decodes a response frame into resp, with decodeRequest's
// reuse and copy rules and its use of dec.
func decodeResponse(body []byte, resp *response, dec *wire.HuffmanDecoder) error {
	var h [responseHeaderLen]byte
	rest, err := openFrame(body, kindResponse, h[:])
	if err != nil {
		return err
	}
	resp.ID = binary.LittleEndian.Uint64(h[:])
	resp.Trace = binary.LittleEndian.Uint64(h[8:])
	resp.Kind = ErrKind(h[respKindOff])
	shape, rest, err := cutShape(h[respRankOff], rest)
	if err != nil {
		return err
	}
	msg, payload, err := cutString(rest)
	if err != nil {
		return err
	}
	setString(&resp.Err, msg)
	flags := h[respFlagsOff]
	if flags&flagPayload == 0 {
		if len(payload) != 0 {
			return badFrame("%d payload bytes on a response that declares none", len(payload))
		}
		resp.Logits = nil
		return nil
	}
	resp.Logits, err = decodeFloats(resp.Logits, &shape, flags, payload, "logits of shape", dec)
	return err
}
