package splitrt

// Tests of the wire format itself: round trips, the header-length
// compatibility rule, refusal of contradictory frames, the read buffer's
// growth bound, the allocation budget, and the fuzz targets of the trust
// boundary. testPeer, at the bottom, is how the other suites of this
// package play one side of the protocol by hand.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"shredder/internal/core"
	"shredder/internal/model"
	"shredder/internal/race"
	"shredder/internal/tensor"
	"shredder/internal/wire"
)

func denseRequest() *request {
	act := tensor.New(2, 3, 4)
	for i := range act.Data() {
		act.Data()[i] = float64(i) - 5.5
	}
	act.Data()[3] = math.Inf(-1)
	act.Data()[4] = math.Float64frombits(0x7ff8000000000abc) // a NaN with a payload of its own
	return &request{
		ID: 41, Trace: 0xfeedfacecafe, Activation: act,
		Audit: &auditNote{Mode: "fitted", Member: -1, InVivo: 9.25, Sampled: true},
	}
}

// codedQuant is a quantized payload as an edge sends it: the packed levels'
// coded form, which is all the frame carries.
func codedQuant(bits int, lo, hi float64, shape []int, packed []byte) *quantPayload {
	return &quantPayload{Bits: bits, Lo: lo, Hi: hi, Shape: shape, Coded: wire.AppendCoded(nil, packed)}
}

// narrowRequest carries a dense activation the narrow form takes: finite
// values whose exponents lie within 31 of each other, and zeros.
func narrowRequest() *request {
	act := tensor.NewRNG(3).FillNormal(tensor.New(2, 3, 5), 0, 1)
	act.Data()[7], act.Data()[8] = 0, math.Copysign(0, -1)
	return &request{ID: 44, Trace: 9, Activation: act, Audit: &auditNote{Mode: "fitted", Member: -1}}
}

// codedNarrowRequest is a ReLU-like activation, half of it exact zeros: its
// exponent codes pay for their code, so it goes in the coded narrow form.
func codedNarrowRequest() *request {
	act := tensor.NewRNG(4).FillNormal(tensor.New(1, 4, 8, 8), 0, 1)
	for i, v := range act.Data() {
		act.Data()[i] = max(v, 0)
	}
	return &request{ID: 45, Trace: 10, Activation: act, Audit: &auditNote{Mode: "stored", Member: 1}}
}

// codedNarrowResponse carries 256 such logits: a response takes the coded
// narrow form too, once it is long enough for its code to pay.
func codedNarrowResponse() *response {
	logits := codedNarrowRequest().Activation.Reshape(2, 128)
	return &response{ID: 46, Trace: 11, Logits: logits}
}

// codedNarrowEdit is the frame body of m, whose payload is coded narrow,
// edited by f. The payload ends the frame: its length table is the last 16
// bytes, and the code stream ends just before them.
func codedNarrowEdit(m interface{ appendFrame([]byte) []byte }, f func(frame []byte)) []byte {
	frame := m.appendFrame(nil)
	if frame[frameHeaderOff+reqFlagsOff]&flagCodedNarrow == 0 {
		panic("the message is not in the coded narrow form")
	}
	f(frame)
	return frame[4:]
}

// quantRequest is too short for a code to pay: it goes in the stored form.
func quantRequest() *request {
	return &request{ID: 42, Trace: 7, Quant: codedQuant(6, -0.5, 3.75, []int{1, 3, 3}, []byte{1, 2, 3, 4, 5, 6, 7})}
}

// codedRequest carries Laplace-shaped 8-bit levels, Huffman-coded.
func codedRequest() *request {
	return &request{ID: 43, Trace: 8, Quant: codedLaplace(), Audit: &auditNote{Mode: "stored", Member: 1, InVivo: 4.5}}
}

func okResponse() *response {
	logits := tensor.New(2, 5)
	for i := range logits.Data() {
		logits.Data()[i] = 0.125 * float64(i)
	}
	return &response{ID: 41, Trace: 0xfeedfacecafe, Logits: logits}
}

// Frames of okResponse and errResponse as an encoder that wrote two timing
// fields after the rank wrote them: server receive time (Unix ns) and time
// held (ns), 8 bytes each, the header trimmed of trailing zeros as always.
// The timing fields were 1_700_000_000_123_456_789 and 4321 in the first,
// 1_700_000_000_987_654_321 and 250_000 in the second.
const (
	timedOKFrame  = "75000000041d002900000000000000fecacefaedfe000011000215cd853dfe9c9717e11002000000050000000000fc03000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000004000020a30d080030f400801"
	timedErrFrame = "45000000041e0009000000000000000300000000000000000200b1680871fe9c971790d0032200696e666572656e63652065786365656465642068616e646c65722074696d656f7574"
)

// timedFrame decodes one of the hex frames above.
func timedFrame(t testing.TB, h string) []byte {
	t.Helper()
	b, err := hex.DecodeString(h)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func errResponse() *response {
	return &response{ID: 9, Trace: 3, Err: "inference exceeded handler timeout", Kind: ErrTimeout}
}

// frameBodyOf strips a frame's length prefix, after checking it.
func frameBodyOf(t testing.TB, frame []byte) []byte {
	t.Helper()
	if len(frame) < 4 || int(binary.LittleEndian.Uint32(frame)) != len(frame)-4 {
		t.Fatalf("length prefix does not cover the %d-byte frame", len(frame))
	}
	return frame[4:]
}

// sameBits compares tensors bit for bit (tensor.Equal would call two NaNs
// different and +0/−0 alike).
func sameBits(a, b *tensor.Tensor) bool {
	if a == nil || b == nil {
		return a == b
	}
	if !tensor.ShapeEq(a.Shape(), b.Shape()) {
		return false
	}
	for i, v := range a.Data() {
		if math.Float64bits(v) != math.Float64bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

// sameRequest compares what a request carries on the wire, floats by their
// bits.
func sameRequest(a, b *request) bool {
	if a.ID != b.ID || a.Trace != b.Trace || !sameBits(a.Activation, b.Activation) ||
		(a.Quant == nil) != (b.Quant == nil) || (a.Audit == nil) != (b.Audit == nil) {
		return false
	}
	if p, q := a.Quant, b.Quant; p != nil && (p.Bits != q.Bits ||
		math.Float64bits(p.Lo) != math.Float64bits(q.Lo) || math.Float64bits(p.Hi) != math.Float64bits(q.Hi) ||
		!tensor.ShapeEq(p.Shape, q.Shape) || !bytes.Equal(p.Coded, q.Coded)) {
		return false
	}
	if m, n := a.Audit, b.Audit; m != nil && (m.Mode != n.Mode || m.Member != n.Member ||
		math.Float64bits(m.InVivo) != math.Float64bits(n.InVivo) || m.Sampled != n.Sampled) {
		return false
	}
	return true
}

func TestFrameRoundTrip(t *testing.T) {
	for name, req := range map[string]*request{
		"dense": denseRequest(), "narrow": narrowRequest(), "coded narrow": codedNarrowRequest(),
		"quant": quantRequest(), "coded": codedRequest(), "empty": {ID: 1},
	} {
		var got request
		if err := decodeRequest(frameBodyOf(t, req.appendFrame(nil)), &got, new(wire.HuffmanDecoder)); err != nil {
			t.Fatalf("%s request: %v", name, err)
		}
		if !sameRequest(&got, req) {
			t.Fatalf("%s request changed on the wire:\n got %+v\nwant %+v", name, got, *req)
		}
	}
	for name, resp := range map[string]*response{"ok": okResponse(), "coded narrow": codedNarrowResponse(), "err": errResponse()} {
		var got response
		if err := decodeResponse(frameBodyOf(t, resp.appendFrame(nil)), &got, new(wire.HuffmanDecoder)); err != nil {
			t.Fatalf("%s response: %v", name, err)
		}
		if !sameBits(got.Logits, resp.Logits) {
			t.Fatalf("%s response logits changed on the wire", name)
		}
		got.Logits, resp.Logits = nil, nil
		if got != *resp {
			t.Fatalf("%s response changed on the wire:\n got %+v\nwant %+v", name, got, *resp)
		}
	}
	h := hello{Version: protoVersion, Network: "lenet", CutLayer: "relu2"}
	if got, err := decodeHello(frameBodyOf(t, h.appendFrame(nil))); err != nil || got != h {
		t.Fatalf("hello round trip: %+v, %v", got, err)
	}
	for _, a := range []helloAck{{OK: true}, {Err: "server serves lenet cut at relu2"}} {
		if got, err := decodeAck(frameBodyOf(t, a.appendFrame(nil))); err != nil || got != a {
			t.Fatalf("ack round trip: %+v, %v", got, err)
		}
	}
}

// withHeaderLen rewrites a frame, whose kind has a header of known bytes,
// so that its header is n bytes long: cut short, restored to full length,
// or padded beyond it with bytes no current decoder knows.
func withHeaderLen(frame []byte, known, n int) []byte {
	old := int(binary.LittleEndian.Uint16(frame[5:]))
	hdr := append([]byte(nil), frame[frameHeaderOff:frameHeaderOff+old]...)
	for len(hdr) < known {
		hdr = append(hdr, 0)
	}
	for len(hdr) < n {
		hdr = append(hdr, 0xee)
	}
	out := append([]byte(nil), frame[:frameHeaderOff]...)
	out = append(out, hdr[:n]...)
	out = append(out, frame[frameHeaderOff+old:]...)
	binary.LittleEndian.PutUint16(out[5:], uint16(n))
	return endFrame(out)
}

// TestFrameHeaderCompatibility pins the one rule that lets a peer one field
// newer or older interoperate: header bytes beyond the ones a decoder knows
// are skipped, header bytes it misses read as zero — and a hello of another
// protocol version is turned away with the typed handshake rejection.
func TestFrameHeaderCompatibility(t *testing.T) {
	req := denseRequest()
	var got request
	longer := withHeaderLen(req.appendFrame(nil), requestHeaderLen, requestHeaderLen+24)
	if err := decodeRequest(frameBodyOf(t, longer), &got, new(wire.HuffmanDecoder)); err != nil {
		t.Fatalf("request with a longer header: %v", err)
	}
	if !sameRequest(&got, req) {
		t.Fatalf("longer header disturbed the known fields: %+v", got)
	}

	// A peer that predates the audit note's fields: the header ends with
	// the rank.
	got = request{}
	shorter := withHeaderLen(req.appendFrame(nil), requestHeaderLen, reqMemberOff)
	if err := decodeRequest(frameBodyOf(t, shorter), &got, new(wire.HuffmanDecoder)); err != nil {
		t.Fatalf("request with a shorter header: %v", err)
	}
	if got.ID != req.ID || !sameBits(got.Activation, req.Activation) {
		t.Fatalf("shorter header disturbed the fields it has: %+v", got)
	}
	if got.Audit.Member != 0 || got.Audit.InVivo != 0 {
		t.Fatalf("fields past a short header must read as zero: %+v", got.Audit)
	}

	resp := okResponse()
	var gotResp response
	if err := decodeResponse(frameBodyOf(t, withHeaderLen(resp.appendFrame(nil), responseHeaderLen, responseHeaderLen+5)), &gotResp, new(wire.HuffmanDecoder)); err != nil {
		t.Fatalf("response with a longer header: %v", err)
	}
	if gotResp.ID != resp.ID || gotResp.Trace != resp.Trace || !sameBits(gotResp.Logits, resp.Logits) {
		t.Fatalf("longer header disturbed the known fields: %+v", gotResp)
	}

	// A peer whose responses carry two timing fields after the rank, as
	// written, and with the header restored to its full 35 bytes.
	for _, c := range []struct {
		name  string
		frame []byte
		want  *response
	}{
		{"ok", timedFrame(t, timedOKFrame), okResponse()},
		{"err", timedFrame(t, timedErrFrame), errResponse()},
	} {
		for _, frame := range [][]byte{c.frame, withHeaderLen(c.frame, responseHeaderLen+16, responseHeaderLen+16)} {
			gotResp = response{}
			if err := decodeResponse(frameBodyOf(t, frame), &gotResp, new(wire.HuffmanDecoder)); err != nil {
				t.Fatalf("%s response with timing fields: %v", c.name, err)
			}
			if !sameBits(gotResp.Logits, c.want.Logits) {
				t.Fatalf("%s response with timing fields: logits %v", c.name, gotResp.Logits)
			}
			want := *c.want
			gotResp.Logits, want.Logits = nil, nil
			if gotResp != want {
				t.Fatalf("%s response with timing fields:\n got %+v\nwant %+v", c.name, gotResp, want)
			}
		}
	}
	// Nor does this encoder write them: no response header runs past the
	// rank.
	for _, r := range []*response{okResponse(), codedNarrowResponse(), errResponse(), {ID: math.MaxUint64, Trace: math.MaxUint64, Logits: tensor.New(1, 1, 1, 1, 1, 1, 1, 1), Kind: ErrInternal}} {
		if n := binary.LittleEndian.Uint16(r.appendFrame(nil)[5:]); n > responseHeaderLen {
			t.Fatalf("response header of %d bytes, more than %d", n, responseHeaderLen)
		}
	}

	// The encoder leans on the same rule: a request with nothing in its
	// later fields does not send them.
	if n := binary.LittleEndian.Uint16((&request{ID: 1}).appendFrame(nil)[5:]); n != 1 {
		t.Fatalf("header of a bare request is %d bytes, want 1", n)
	}

	_, _, addr := identityRig(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	peer := newTestPeer(conn)
	ack, err := peer.hello(hello{Version: protoVersion + 1, Network: "obsnet", CutLayer: "cut"})
	if err != nil || ack.OK || !strings.Contains(ack.Err, "protocol version") {
		t.Fatalf("hello of another version: ack %+v, err %v", ack, err)
	}
	if _, err := peer.readFrame(maxFrameBody); err == nil {
		t.Fatal("server kept the connection of a rejected hello open")
	}

	// A version 1 peer sends quantized payloads packed, not coded, a version
	// 2 peer reads no narrow dense payload and a version 3 peer no coded
	// narrow one: each is turned away at the hello, before a payload crosses.
	for _, v := range []uint16{1, 2, 3} {
		conn, err = net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		ack, err = newTestPeer(conn).hello(hello{Version: v, Network: "obsnet", CutLayer: "cut"})
		if want := fmt.Sprintf("protocol version 4, client speaks %d", v); err != nil || ack.OK || !strings.Contains(ack.Err, want) {
			t.Fatalf("hello of version %d: ack %+v, err %v", v, ack, err)
		}
	}
}

// TestDensePayloadGoesNarrow: a dense payload the narrow form holds goes
// out narrow and flagged so, requests and responses alike, and one it does
// not hold (Inf and NaN here) goes raw and unflagged.
func TestDensePayloadGoesNarrow(t *testing.T) {
	for name, c := range map[string]struct {
		frame  []byte
		values int
		narrow bool
	}{
		"narrow request": {narrowRequest().appendFrame(nil), 30, true},
		"raw request":    {denseRequest().appendFrame(nil), 24, false},
		"logits":         {okResponse().appendFrame(nil), 10, true},
	} {
		if got := c.frame[frameHeaderOff+reqFlagsOff]&flagNarrow != 0; got != c.narrow {
			t.Errorf("%s: narrow flag %v, want %v", name, got, c.narrow)
		}
		if !c.narrow {
			continue
		}
		if err := wire.DecodeNarrow(make([]float64, c.values), c.frame[len(c.frame)-wire.NarrowLen(c.values):]); err != nil {
			t.Errorf("%s: the frame does not end in the narrow form of %d values: %v", name, c.values, err)
		}
	}
}

// TestDensePayloadTakesShortestForm: a payload whose exponent codes pay for
// their code goes out coded narrow and flagged so, requests and responses
// alike, in fewer bytes than the narrow form; ten logits stay narrow.
func TestDensePayloadTakesShortestForm(t *testing.T) {
	for name, c := range map[string]struct {
		frame  []byte
		values int
		coded  bool
	}{
		"coded narrow request":  {codedNarrowRequest().appendFrame(nil), 256, true},
		"coded narrow response": {codedNarrowResponse().appendFrame(nil), 256, true},
		"logits":                {okResponse().appendFrame(nil), 10, false},
	} {
		flags := c.frame[frameHeaderOff+reqFlagsOff]
		if got := flags&flagCodedNarrow != 0; got != c.coded || (c.coded && flags&flagNarrow != 0) {
			t.Errorf("%s: flags %#x, coded narrow %v", name, flags, c.coded)
		}
		if !c.coded {
			continue
		}
		narrow := wire.NarrowLen(c.values)
		b, form := wire.AppendDense(nil, codedNarrowRequest().Activation.Data())
		if form != wire.FormCodedNarrow || len(b) >= narrow || !bytes.HasSuffix(c.frame, b) {
			t.Errorf("%s: the frame does not end in the coded narrow form of %d values, %d bytes against %d narrow", name, c.values, len(b), narrow)
		}
	}
}

// TestDialRejectsVersionMismatch drives the client half of the version
// check: a server that refuses the hello surfaces as errHandshakeRejected,
// which a redialing client treats as terminal.
func TestDialRejectsVersionMismatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		peer := newTestPeer(conn)
		if _, err := peer.readHello(); err != nil {
			return
		}
		peer.write(&helloAck{Err: "server speaks protocol version 2, client speaks 1"})
	}()
	split, _, _ := identityRig(t)
	_, err = Dial(ln.Addr().String(), split, "cut", nil, 1, WithReconnect(3, time.Millisecond))
	if !errors.Is(err, errHandshakeRejected) {
		t.Fatalf("Dial against a refusing server: %v", err)
	}
}

// hostileRequests are request bodies that contradict themselves or the
// frame they came in; decodeRequest must refuse each with errBadFrame.
func hostileRequests() map[string][]byte {
	// mutate edits a request's frame in place: h is its header at full
	// length, so every offset is present, and dims the dimensions after it.
	mutate := func(req *request, f func(h, dims []byte)) []byte {
		frame := withHeaderLen(req.appendFrame(nil), requestHeaderLen, requestHeaderLen)
		f(frame[frameHeaderOff:], frame[frameHeaderOff+requestHeaderLen:])
		return frame[4:]
	}
	dense, quant := denseRequest(), quantRequest()
	rank8 := &request{ID: 8, Activation: tensor.New(1, 1, 1, 1, 1, 1, 1, 1)}
	return map[string][]byte{
		"rank 9": mutate(dense, func(h, _ []byte) { h[reqRankOff] = 9 }),
		"dims overflow": mutate(rank8, func(_, dims []byte) {
			for i := 0; i < 8; i++ {
				binary.LittleEndian.PutUint32(dims[4*i:], math.MaxInt32)
			}
		}),
		"dims past frame":       mutate(&request{ID: 1}, func(h, _ []byte) { h[reqRankOff] = 4 }),
		"dim past int32":        mutate(dense, func(_, dims []byte) { binary.LittleEndian.PutUint32(dims, math.MaxUint32) }),
		"dims against length":   mutate(dense, func(_, dims []byte) { binary.LittleEndian.PutUint32(dims, 3) }),
		"quant bits 0":          mutate(quant, func(h, _ []byte) { h[reqBitsOff] = 0 }),
		"quant bits 17":         mutate(quant, func(h, _ []byte) { h[reqBitsOff] = 17 }),
		"quant against length":  mutate(quant, func(_, dims []byte) { binary.LittleEndian.PutUint32(dims[4:], 4) }),
		"payload undeclared":    mutate(dense, func(h, _ []byte) { h[reqFlagsOff] &^= flagPayload }),
		"raw declared narrow":   mutate(dense, func(h, _ []byte) { h[reqFlagsOff] |= flagNarrow }),
		"narrow declared raw":   mutate(narrowRequest(), func(h, _ []byte) { h[reqFlagsOff] &^= flagNarrow }),
		"quant declared narrow": mutate(quant, func(h, _ []byte) { h[reqFlagsOff] |= flagNarrow }),
		"narrow emin not least": zeroNarrowEmin2(&request{ID: 3, Activation: tensor.New(1, 2, 3)}, 6)[4:],
		"coded declared narrow": mutate(codedNarrowRequest(), func(h, _ []byte) { h[reqFlagsOff] ^= flagNarrow | flagCodedNarrow }),
		"narrow declared coded": mutate(narrowRequest(), func(h, _ []byte) { h[reqFlagsOff] ^= flagNarrow | flagCodedNarrow }),
		"narrow and coded":      mutate(codedNarrowRequest(), func(h, _ []byte) { h[reqFlagsOff] |= flagNarrow }),
		"quant declared coded":  mutate(quant, func(h, _ []byte) { h[reqFlagsOff] |= flagCodedNarrow }),
		"coded truncated":       codedNarrowRequest().appendFrame(nil)[4 : len(codedNarrowRequest().appendFrame(nil))-1],
		"coded oversubscribed":  codedNarrowEdit(codedNarrowRequest(), func(f []byte) { f[len(f)-16] = 0x11 }),
		"coded padding bit":     codedNarrowEdit(codedNarrowRequest(), func(f []byte) { f[len(f)-17] |= 1 }),
		"string past frame": func() []byte {
			b := (&request{ID: 1}).appendFrame(nil)[4:]
			binary.LittleEndian.PutUint16(b[len(b)-2:], 500)
			return b
		}(),
		"header past frame": {kindRequest, 0xff, 0xff, 1, 2, 3},
		"response kind":     okResponse().appendFrame(nil)[4:],
		"truncated":         dense.appendFrame(nil)[4:60],
		"narrow truncated":  narrowRequest().appendFrame(nil)[4:120],
		"two bytes":         {kindRequest, 0},
	}
}

func TestDecodeRefusesContradictoryFrames(t *testing.T) {
	for name, body := range hostileRequests() {
		var req request
		if err := decodeRequest(body, &req, new(wire.HuffmanDecoder)); !errors.Is(err, errBadFrame) {
			t.Errorf("request %q: error %v, want errBadFrame", name, err)
		}
	}
	resp := withHeaderLen(okResponse().appendFrame(nil), responseHeaderLen, responseHeaderLen)
	binary.LittleEndian.PutUint32(resp[frameHeaderOff+responseHeaderLen:], 7)
	var got response
	if err := decodeResponse(resp[4:], &got, new(wire.HuffmanDecoder)); !errors.Is(err, errBadFrame) {
		t.Errorf("response with dims against length: error %v, want errBadFrame", err)
	}
	if err := decodeResponse(denseRequest().appendFrame(nil)[4:], &got, new(wire.HuffmanDecoder)); !errors.Is(err, errBadFrame) {
		t.Errorf("request where a response was expected: error %v, want errBadFrame", err)
	}
}

// zeroNarrowEmin2 is the frame of a request (or a response) whose dense
// payload is values zeros, with its narrow payload's emin raised from 1 to
// 2: no code names an exponent, so an emin other than 1 is not the form's
// one spelling.
func zeroNarrowEmin2(m interface{ appendFrame([]byte) []byte }, values int) []byte {
	frame := m.appendFrame(nil)
	binary.LittleEndian.PutUint16(frame[len(frame)-wire.NarrowLen(values):], 2)
	return frame
}

// TestServerAnswersContradictoryFrame sends a whole frame whose dimensions
// disagree with its payload to a live server: the reply is a typed bad
// request carrying the frame's ID, and — the length prefix having kept the
// stream in step — the connection goes on to serve a good request.
func TestServerAnswersContradictoryFrame(t *testing.T) {
	_, _, addr := identityRig(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	peer := newTestPeer(conn)
	if ack, err := peer.hello(hello{Version: protoVersion, Network: "obsnet", CutLayer: "cut"}); err != nil || !ack.OK {
		t.Fatalf("handshake failed: %v %+v", err, ack)
	}
	bad := withHeaderLen((&request{ID: 5, Trace: 77, Activation: tensor.New(1, 1, 2, 2)}).appendFrame(nil), requestHeaderLen, requestHeaderLen)
	binary.LittleEndian.PutUint32(bad[frameHeaderOff+requestHeaderLen:], 2)
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	resp, err := peer.readResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 5 || resp.Trace != 77 || resp.Kind != ErrBadRequest || !strings.Contains(resp.Err, "malformed frame") {
		t.Fatalf("contradictory frame answered with %+v", resp)
	}
	if err := peer.write(&request{ID: 6, Activation: tensor.New(1, 1, 2, 2).Fill(1)}); err != nil {
		t.Fatal(err)
	}
	if resp, err = peer.readResponse(); err != nil || resp.ID != 6 || resp.Err != "" || resp.Logits == nil {
		t.Fatalf("connection did not survive the bad frame: %+v, %v", resp, err)
	}
}

// trickle is a net.Conn that yields its data a few bytes per Read.
type trickle struct {
	net.Conn // nil: only Read is used
	r        io.Reader
}

func (c *trickle) Read(p []byte) (int, error) {
	if len(p) > 1000 {
		p = p[:1000]
	}
	return c.r.Read(p)
}

// TestReadBufferGrowsOnlyAsBytesArrive announces the largest legal frame,
// delivers a fraction of it, and checks what the reader committed: the
// bytes that arrived plus one chunk, not the announced length. A length
// above the limit is refused before anything is read.
func TestReadBufferGrowsOnlyAsBytesArrive(t *testing.T) {
	const arrived = 3*readChunk + 4321
	stream := binary.LittleEndian.AppendUint32(nil, maxFrameBody)
	stream = append(stream, make([]byte, arrived)...)
	c := &frameConn{conn: &trickle{r: bytes.NewReader(stream)}}
	if _, err := c.readFrame(maxFrameBody); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short frame: error %v, want unexpected EOF", err)
	}
	if len(c.rbuf) != arrived || cap(c.rbuf) > arrived+readChunk {
		t.Fatalf("read buffer holds %d bytes in %d of capacity after %d arrived", len(c.rbuf), cap(c.rbuf), arrived)
	}

	for _, prefix := range []uint32{maxFrameBody + 1, math.MaxUint32, 2, 0} {
		c := &frameConn{conn: &trickle{r: bytes.NewReader(binary.LittleEndian.AppendUint32(nil, prefix))}}
		if _, err := c.readFrame(maxFrameBody); !errors.Is(err, errBadFrame) {
			t.Fatalf("length prefix %d: error %v, want errBadFrame", prefix, err)
		}
		if cap(c.rbuf) != 0 {
			t.Fatalf("length prefix %d made the reader allocate %d bytes", prefix, cap(c.rbuf))
		}
	}
}

// TestFrameCodecAllocatesNothingWarm pins the framing half of the
// allocation budget: encoding into a buffer that has held such a frame
// before, and decoding into a destination that has held such a message
// before, allocate nothing.
func TestFrameCodecAllocatesNothingWarm(t *testing.T) {
	dense, narrow, coded, quant, resp := denseRequest(), narrowRequest(), codedNarrowRequest(), codedRequest(), okResponse()
	var buf []byte
	for name, enc := range map[string]func(){
		"dense request":        func() { buf = dense.appendFrame(buf) },
		"narrow request":       func() { buf = narrow.appendFrame(buf) },
		"coded narrow request": func() { buf = coded.appendFrame(buf) },
		"quant request":        func() { buf = quant.appendFrame(buf) },
		"response":             func() { buf = resp.appendFrame(buf) },
	} {
		enc()
		if n := testing.AllocsPerRun(100, enc); n != 0 {
			t.Errorf("encoding a %s into a warm buffer: %v allocations", name, n)
		}
	}

	denseBody := append([]byte(nil), dense.appendFrame(nil)[4:]...)
	narrowBody := append([]byte(nil), narrow.appendFrame(nil)[4:]...)
	codedBody := append([]byte(nil), coded.appendFrame(nil)[4:]...)
	quantBody := append([]byte(nil), quant.appendFrame(nil)[4:]...)
	respBody := append([]byte(nil), resp.appendFrame(nil)[4:]...)
	var dstDense, dstNarrow, dstCoded, dstQuant request
	var dstResp response
	var hd wire.HuffmanDecoder // a request state's: it keeps its table and code scratch
	for name, dec := range map[string]func() error{
		"dense request":        func() error { return decodeRequest(denseBody, &dstDense, &hd) },
		"narrow request":       func() error { return decodeRequest(narrowBody, &dstNarrow, &hd) },
		"coded narrow request": func() error { return decodeRequest(codedBody, &dstCoded, &hd) },
		"quant request":        func() error { return decodeRequest(quantBody, &dstQuant, &hd) },
		"response":             func() error { return decodeResponse(respBody, &dstResp, &hd) },
	} {
		if err := dec(); err != nil {
			t.Fatalf("decoding a %s: %v", name, err)
		}
		if n := testing.AllocsPerRun(100, func() { dec() }); n != 0 {
			t.Errorf("decoding a %s into a reused destination: %v allocations", name, n)
		}
	}
	if !sameRequest(&dstDense, dense) || !sameRequest(&dstNarrow, narrow) || !sameRequest(&dstCoded, coded) || !sameRequest(&dstQuant, quant) || !sameBits(dstResp.Logits, resp.Logits) {
		t.Fatal("reused destinations hold the wrong values")
	}
}

// roundTripAllocCeiling bounds one warm InferActivation against an
// in-process server at LeNet's conv2 cut, every goroutine of the process
// counted: the logits the client hands its caller, two allocations (a tensor
// is a header carrying its shape, and the data), and nothing for framing, for
// the server's request state (each request is decoded, run and answered in
// the state of the one before it) or for the forward pass itself. Measured: 2.
const roundTripAllocCeiling = 3

func TestWarmRoundTripAllocationCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	pre, err := model.Train(model.LeNet(), model.TrainConfig{TrainN: 64, TestN: 16, Epochs: 1, Seed: 40})
	if err != nil {
		t.Fatal(err)
	}
	cutLayer, err := pre.Spec.CutLayer("conv2")
	if err != nil {
		t.Fatal(err)
	}
	split, err := core.NewSplit(pre.Net, cutLayer, pre.Spec.Dataset.SampleShape())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewCloudServer(split, cutLayer)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(addr, split, cutLayer, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	act := split.Local(pre.Test.Batches(1)[0].Images)
	ctx := context.Background()
	n := testing.AllocsPerRun(200, func() {
		if _, err := client.InferActivation(ctx, act); err != nil {
			t.Error(err)
		}
	})
	t.Logf("%v allocations per warm round trip", n)
	if n > roundTripAllocCeiling {
		t.Fatalf("a warm round trip allocates %v times, ceiling %d", n, roundTripAllocCeiling)
	}
}

// The fuzz targets start from the corpus committed under testdata/fuzz:
// valid dense, quantized, response and error frames, and the hostile ones of
// hostileRequests plus a truncated body and a length prefix of 2³²−1.

// FuzzReadFrame feeds arbitrary bytes to a connection's reader as a stream
// of frames: it must end in an error, never a panic, with the read buffer
// never larger than the bytes received plus one chunk.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte) {
		c := &frameConn{conn: &trickle{r: bytes.NewReader(stream)}}
		for {
			body, err := c.readFrame(maxFrameBody)
			if cap(c.rbuf) > len(stream)+readChunk {
				t.Fatalf("%d bytes of input grew the read buffer to %d", len(stream), cap(c.rbuf))
			}
			if err != nil {
				if !errors.Is(err, errBadFrame) && err != io.EOF && err != io.ErrUnexpectedEOF {
					t.Fatalf("untyped read error %v", err)
				}
				return
			}
			if len(body) < 3 || len(body) > len(stream) {
				t.Fatalf("readFrame returned a %d-byte body from %d bytes of input", len(body), len(stream))
			}
		}
	})
}

// FuzzDecodeRequest: any body either decodes into a request that is
// consistent with itself and re-encodes to an equivalent frame, or is
// refused with errBadFrame. Nothing it decodes is sized by more than the
// body's own length, and no packed length it declares is more than its
// coded bytes can hold. Beside the committed corpus it starts from coded
// requests: a stored one, a Huffman-coded one, and that one with its code
// broken, which the frame decoder passes on for the server's decode step to
// refuse; narrow dense ones: good, cut short, and not in the form's one
// spelling; and coded narrow ones: good, cut short, with an oversubscribed
// code, and with a padding bit set.
func FuzzDecodeRequest(f *testing.F) {
	broken := codedRequest()
	broken.Quant.Coded[1+128/2] ^= 0x0f // value 128's code length: the code is no longer complete
	for _, req := range []*request{quantRequest(), codedRequest(), broken, narrowRequest(), codedNarrowRequest()} {
		f.Add(req.appendFrame(nil)[4:])
	}
	f.Add(narrowRequest().appendFrame(nil)[4:120])
	f.Add(zeroNarrowEmin2(&request{ID: 3, Activation: tensor.New(1, 2, 3)}, 6)[4:])
	hostile := hostileRequests()
	for _, name := range []string{"coded truncated", "coded oversubscribed", "coded padding bit"} {
		f.Add(hostile[name])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req request
		if err := decodeRequest(body, &req, new(wire.HuffmanDecoder)); err != nil {
			if !errors.Is(err, errBadFrame) {
				t.Fatalf("untyped decode error %v", err)
			}
			return
		}
		// A value takes 54 bits at least in the coded narrow form — its
		// mantissa, sign and one bit of code — 58 narrow, 64 raw.
		if req.Activation != nil && 27*req.Activation.Len() > 4*len(body) {
			t.Fatalf("%d-byte body decoded to %d values", len(body), req.Activation.Len())
		}
		if q := req.Quant; q != nil && (len(q.Coded) > len(body) || q.Bits < 1 || q.Bits > 16 ||
			(tensor.Volume(q.Shape)*q.Bits+7)/8 > 8*len(q.Coded)) {
			t.Fatalf("%d-byte body decoded to %d coded bytes of shape %v at %d bits", len(body), len(q.Coded), q.Shape, q.Bits)
		}
		var again request
		if err := decodeRequest(req.appendFrame(nil)[4:], &again, new(wire.HuffmanDecoder)); err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if !sameRequest(&again, &req) {
			t.Fatalf("request changed across a re-encode:\n got %+v\nwant %+v", again, req)
		}
	})
}

// FuzzDecodeResponse is FuzzDecodeRequest for the client's side of the
// boundary, with the narrow and coded narrow seeds in responses.
func FuzzDecodeResponse(f *testing.F) {
	ok := okResponse().appendFrame(nil)[4:]
	f.Add(ok)
	f.Add(ok[:len(ok)-3])
	f.Add(zeroNarrowEmin2(&response{ID: 2, Logits: tensor.New(1, 10)}, 10)[4:])
	coded := codedNarrowResponse().appendFrame(nil)[4:]
	f.Add(coded)
	f.Add(coded[:len(coded)-1])
	f.Add(codedNarrowEdit(codedNarrowResponse(), func(f []byte) { f[len(f)-16] = 0x11 }))
	f.Add(codedNarrowEdit(codedNarrowResponse(), func(f []byte) { f[len(f)-17] |= 1 }))
	f.Add(timedFrame(f, timedOKFrame)[4:])
	f.Fuzz(func(t *testing.T, body []byte) {
		var resp response
		if err := decodeResponse(body, &resp, new(wire.HuffmanDecoder)); err != nil {
			if !errors.Is(err, errBadFrame) {
				t.Fatalf("untyped decode error %v", err)
			}
			return
		}
		if resp.Logits != nil && 27*resp.Logits.Len() > 4*len(body) {
			t.Fatalf("%d-byte body decoded to %d values", len(body), resp.Logits.Len())
		}
		var again response
		if err := decodeResponse(resp.appendFrame(nil)[4:], &again, new(wire.HuffmanDecoder)); err != nil {
			t.Fatalf("re-encoded response does not decode: %v", err)
		}
		if !sameBits(again.Logits, resp.Logits) {
			t.Fatal("logits changed across a re-encode")
		}
		again.Logits, resp.Logits = nil, nil
		if again != resp {
			t.Fatalf("response changed across a re-encode:\n got %+v\nwant %+v", again, resp)
		}
	})
}

// testPeer plays one side of the protocol by hand over a connection.
type testPeer struct{ *frameConn }

func newTestPeer(conn net.Conn) *testPeer { return &testPeer{&frameConn{conn: conn}} }

// write sends one message as a frame.
func (p *testPeer) write(m interface{ appendFrame([]byte) []byte }) error {
	p.wbuf = m.appendFrame(p.wbuf)
	return p.flush()
}

// hello opens a connection the way a client does and returns the ack.
func (p *testPeer) hello(h hello) (helloAck, error) {
	if err := p.write(&h); err != nil {
		return helloAck{}, err
	}
	body, err := p.readFrame(maxHandshakeBody)
	if err != nil {
		return helloAck{}, err
	}
	return decodeAck(body)
}

// readHello is the accepting side's first read.
func (p *testPeer) readHello() (hello, error) {
	body, err := p.readFrame(maxHandshakeBody)
	if err != nil {
		return hello{}, err
	}
	return decodeHello(body)
}

// accept reads the hello and acknowledges it, whatever it says.
func (p *testPeer) accept() error {
	if _, err := p.readHello(); err != nil {
		return err
	}
	return p.write(&helloAck{OK: true})
}

func (p *testPeer) readRequest() (request, error) {
	var req request
	body, err := p.readFrame(maxFrameBody)
	if err == nil {
		err = decodeRequest(body, &req, new(wire.HuffmanDecoder))
	}
	return req, err
}

func (p *testPeer) readResponse() (response, error) {
	var resp response
	body, err := p.readFrame(maxFrameBody)
	if err == nil {
		err = decodeResponse(body, &resp, new(wire.HuffmanDecoder))
	}
	return resp, err
}
