package splitrt

// Tests of the coded quantized payload end to end: what the edge codes is
// what a backend behind a gateway receives, what the server decodes is what
// the audit ledger has always digested, and a code the edge cannot have
// written is refused per request.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"

	"shredder/internal/audit"
	"shredder/internal/core"
	"shredder/internal/nn"
	"shredder/internal/quantize"
	"shredder/internal/tensor"
)

// wideSplit is an identity split whose activation is large enough for a code
// to pay: 1×32×32 values through the cut's ReLU.
func wideSplit(t *testing.T) *core.Split {
	t.Helper()
	split, err := core.NewSplit(nn.NewSequential("widenet", nn.NewReLU("cut"), nn.NewReLU("post")), "cut", []int{1, 32, 32})
	if err != nil {
		t.Fatal(err)
	}
	return split
}

// laplaceActivation is a deterministic batch of one Laplace-shaped
// activation for wideSplit: what learned noise makes of a′.
func laplaceActivation() *tensor.Tensor {
	rng := tensor.NewRNG(31)
	a := tensor.New(1, 1, 32, 32)
	for i := range a.Data() {
		u := rng.Float64() - 0.5
		a.Data()[i] = 1.5 - 0.75*math.Copysign(math.Log(1-2*math.Abs(u)), u)
	}
	return a
}

// codedLaplace is laplaceActivation as an 8-bit edge sends it.
func codedLaplace() *quantPayload {
	a := laplaceActivation()
	scheme, err := quantize.Fit(a, 8)
	if err != nil {
		panic(err)
	}
	return codedQuant(8, scheme.Lo, scheme.Hi, a.Shape(), scheme.QuantizePacked(a))
}

// TestGatewayRelaysCodedBytes: an 8-bit request through a gateway reaches
// the backend as the coded bytes the edge sent, byte for byte, and they are
// the Huffman-coded form, smaller than the packed payload.
func TestGatewayRelaysCodedBytes(t *testing.T) {
	split := wideSplit(t)
	var mu sync.Mutex
	var received []byte
	backend, _, stop := fakeKindServer(t, func(_ int, req request) response {
		mu.Lock()
		defer mu.Unlock()
		if req.Quant != nil {
			received = append(received[:0], req.Quant.Coded...)
		}
		return response{ID: req.ID, Logits: tensor.New(1, 2)}
	})
	defer stop()
	_, _, gwAddr := front(t, split, "cut", []string{backend})
	client, err := Dial(gwAddr, split, "cut", nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.SetWireQuantization(8); err != nil {
		t.Fatal(err)
	}
	if _, err := client.InferActivation(context.Background(), laplaceActivation()); err != nil {
		t.Fatal(err)
	}
	sent := client.quant.Coded // the call has returned: nothing else touches the buffer
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(received, sent) {
		t.Fatalf("the backend received %d bytes, not the %d the edge coded", len(received), len(sent))
	}
	if packed := len(client.quant.Packed); sent[0] != 1 || len(sent) >= packed {
		t.Fatalf("%d packed bytes went out as %d, form %d: not coded", packed, len(sent), sent[0])
	}
}

// TestRequestStateKeepsOnlyCodedBytes: a request whose shape declares far
// more packed bytes than its coded payload has — one byte value codes at one
// bit a byte — leaves the request state a gateway decodes it into holding a
// copy of the bytes that arrived, not room for the length the shape announces.
func TestRequestStateKeepsOnlyCodedBytes(t *testing.T) {
	shape := []int{1, 64, 32, 32}
	q := codedQuant(8, 0, 1, shape, make([]byte, tensor.Volume(shape)))
	if q.Coded[0] != 1 || 4*len(q.Coded) > tensor.Volume(shape) {
		t.Fatalf("%d packed bytes of one value coded to %d in form %d", tensor.Volume(shape), len(q.Coded), q.Coded[0])
	}
	st := new(stateList).take()
	st.decode(frameBodyOf(t, (&request{ID: 5, Quant: q}).appendFrame(nil)))
	if st.req.malformed != "" {
		t.Fatal(st.req.malformed)
	}
	if got, want := cap(st.quant.Coded), cap(append([]byte(nil), q.Coded...)); got > want {
		t.Fatalf("%d coded bytes declaring %d packed left a %d-byte buffer; a copy takes %d",
			len(q.Coded), tensor.Volume(shape), got, want)
	}
}

// TestAuditedCodedDigestPinned: the activation digest of an audited 8-bit
// request is the one recorded when the wire carried the packed bytes
// themselves. The server digests the levels it decoded, so ledgers written
// before the payload was coded verify now.
func TestAuditedCodedDigestPinned(t *testing.T) {
	split := wideSplit(t)
	srv, addr := serve(t, split, "cut", WithAudit(audit.New(audit.Options{})))
	client, err := Dial(addr, split, "cut", nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.SetWireQuantization(8); err != nil {
		t.Fatal(err)
	}
	if _, err := client.InferActivation(context.Background(), laplaceActivation()); err != nil {
		t.Fatal(err)
	}
	if client.quant.Coded[0] != 1 {
		t.Fatal("the request went out stored, not coded")
	}
	srv.Auditor().Flush()
	proof, ok := srv.Auditor().ProofByTrace(uint64(client.LastTrace()))
	if !ok {
		t.Fatal("the request left no record")
	}
	rec, err := proof.Verify()
	if err != nil {
		t.Fatal(err)
	}
	const want = "a77e0ad13e9e46c608d4552898b3e08d4dace301463628a73dcfd54c7df7fea5"
	if got := fmt.Sprintf("%x", rec.ActDigest); got != want {
		t.Fatalf("activation digest %s, want %s", got, want)
	}
}

// TestServerRefusesBrokenCode: a request whose code is not one an edge
// writes — here, its length table no longer a complete code — is answered
// bad-request by the server's decode step, and the connection serves the
// next request.
func TestServerRefusesBrokenCode(t *testing.T) {
	split := wideSplit(t)
	_, addr := serve(t, split, "cut")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	peer := newTestPeer(conn)
	if ack, err := peer.hello(hello{Version: protoVersion, Network: "widenet", CutLayer: "cut"}); err != nil || !ack.OK {
		t.Fatalf("handshake failed: %v %+v", err, ack)
	}
	q := codedLaplace()
	good := append([]byte(nil), q.Coded...)
	q.Coded[1+40] ^= 0x0f // value 80's code length: the code is no longer complete
	for i, c := range []struct {
		coded []byte
		want  string
	}{{q.Coded, "bad quantized payload"}, {good, ""}} {
		q.Coded = c.coded
		if err := peer.write(&request{ID: uint64(i + 1), Quant: q}); err != nil {
			t.Fatal(err)
		}
		resp, err := peer.readResponse()
		if err != nil {
			t.Fatal(err)
		}
		if c.want == "" && (resp.Err != "" || resp.Logits == nil) {
			t.Fatalf("request %d after the broken one: %+v", i+1, resp)
		}
		if c.want != "" && (resp.Kind != ErrBadRequest || !strings.Contains(resp.Err, c.want)) {
			t.Fatalf("broken code answered %v %q", resp.Kind, resp.Err)
		}
	}
}
