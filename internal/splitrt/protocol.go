// Package splitrt is the edge/cloud split-inference runtime: a TCP server
// hosting the remote part R of a split network, and an edge client that
// runs the local part L, injects sampled Shredder noise, and ships the
// noisy activation over the wire — the deployment story of the paper's
// Figure 2. The wire protocol is one length-prefixed binary frame per
// message (frame.go) and carries only the noisy activation; raw inputs never
// leave the edge.
package splitrt

import (
	"fmt"

	"shredder/internal/core"
	"shredder/internal/tensor"
)

// hello is the connection handshake: the client declares the protocol
// version it speaks and which network and cut it expects the server to
// host, so mismatched deployments fail fast.
type hello struct {
	Version  uint16
	Network  string
	CutLayer string
}

// helloAck is the server's handshake response.
type helloAck struct {
	OK  bool
	Err string
}

// request carries one batch of noisy activations to the cloud, either as
// a dense float tensor or as a quantized payload (at most one is set).
//
// The ID is chosen by the client and echoed back on the matching response.
// A batching server answers each request on its own goroutine, so
// responses on one connection may arrive out of order; the ID is what lets
// a client pipeline several requests on a single connection and demultiplex
// the answers (EdgeClient itself stays lockstep: one request in flight per
// connection).
// Trace is minted by the client (obs.NewTraceID) and echoed verbatim on
// the response; the server keys the request's span and audit record by it,
// so the trace a client holds (LastTrace) finds both. Zero means "untraced".
// Audit, when non-nil, carries the edge's privacy attribution for the
// server's tamper-evident audit trail (see internal/audit): which noise
// mode and member perturbed this activation and the realized in-vivo
// 1/SNR when the client's privacy monitor sampled one.
type request struct {
	ID         uint64
	Trace      uint64         // trace ID, echoed in the response (0 = untraced)
	Activation *tensor.Tensor // [N, ...] noisy activation batch
	Quant      *quantPayload  // quantized wire format, when enabled
	Audit      *auditNote     // privacy attribution for the audit ledger

	// malformed is set by the accepting side, never sent: the frame arrived
	// whole but its payload could not be decoded, and this is why.
	malformed string
	// logitsInto is set by the sending side, never sent: a tensor the caller
	// owns for the response's logits to be decoded into, when it has their
	// shape. One attempt at a time may hold it — a hedged call passes none.
	logitsInto *tensor.Tensor
	// watch is set by the sending side, never sent: the caller vouches that,
	// deadline aside, the call's context is cancelled only by an accepting
	// connection that then fires this watch, so the call need not register a
	// cancellation callback of its own. One attempt at a time may hold it.
	watch *relayWatch
}

// auditNote is the per-request privacy attribution an edge attaches for
// the server's audit ledger: what its core.Edge returned for the request.
type auditNote = core.Attribution

// quantPayload is the quantized wire representation of an activation
// batch: level indices bit-packed at Bits bits each (little-endian bit
// order, Volume(Shape) values — see quantize.Pack) plus the scheme needed
// to unpack and dequantize them. The frame carries Coded, the packed bytes
// under wire.AppendCoded's per-payload Huffman code: at most
// Scheme.WireBytes plus one byte — Bits bits a value, where a dense payload
// takes 58 narrow and 64 raw — and for the Laplace-shaped levels of a
// noised activation some 14 % less. Packed is the edge's input to the
// coder and, on a server, what its decode step writes; a gateway relays
// Coded untouched and never fills Packed.
type quantPayload struct {
	Bits   int
	Lo, Hi float64
	Shape  []int
	Coded  []byte
	Packed []byte
}

// ErrKind classifies a remote failure so the client can decide whether a
// retry has any chance of succeeding. It travels on the wire as a small
// integer next to the human-readable message; a value this build does not
// know is treated like ErrUnknown, which is non-retryable.
type ErrKind uint8

const (
	// ErrUnknown is an unclassified remote error. Not retryable.
	ErrUnknown ErrKind = iota
	// ErrBadRequest is a malformed payload: wrong activation shape, bad
	// quantization scheme, missing activation. The request itself is at
	// fault, so retrying it verbatim can never succeed.
	ErrBadRequest
	// ErrTimeout means the inference exceeded the server's handler
	// timeout. Transient by definition — retryable.
	ErrTimeout
	// ErrShutdown means the server is closing and refused the request.
	// Retryable: a redialing client may find the server (or its
	// replacement) accepting again.
	ErrShutdown
	// ErrInternal is a server-side failure (e.g. a panic mid-forward).
	// Possibly data-dependent, so not retried.
	ErrInternal
)

// Retryable reports whether a request that failed with this kind is worth
// resending unchanged.
func (k ErrKind) Retryable() bool { return k == ErrTimeout || k == ErrShutdown }

// String names the kind for error messages.
func (k ErrKind) String() string {
	switch k {
	case ErrBadRequest:
		return "bad-request"
	case ErrTimeout:
		return "timeout"
	case ErrShutdown:
		return "shutdown"
	case ErrInternal:
		return "internal"
	default:
		return "unknown"
	}
}

// response returns the remote network's logits for a request, or a typed
// error (Kind classifies Err so clients retry only what can succeed).
type response struct {
	ID     uint64
	Trace  uint64 // echo of the request's trace ID
	Logits *tensor.Tensor
	Err    string
	Kind   ErrKind
}

// RemoteError is the client-side representation of a protocol-level
// failure reported by the server. Transport failures (broken connections)
// are ordinary errors; RemoteError means the wire worked and the server
// itself declined or failed the request.
type RemoteError struct {
	Kind ErrKind
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("splitrt: remote error (%s): %s", e.Kind, e.Msg)
}

// Retryable reports whether resending the identical request may succeed.
func (e *RemoteError) Retryable() bool { return e.Kind.Retryable() }
