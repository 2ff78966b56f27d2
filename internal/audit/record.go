// Package audit provides the tamper-evident privacy evidence trail:
// every served inference emits a canonical-encoded Record (which noise
// was applied, the realized in-vivo privacy when the monitor sampled
// one, and a digest of the activation the cloud actually saw), records
// are hashed into Merkle-batched sealed batches, and batch roots are
// anchored through a pluggable Ledger. A client holding a trace ID can
// later fetch an inclusion proof over /debug/audit and replay it
// against the anchored root — neither operator nor client can silently
// rewrite what noise a query received.
//
// The auditor seals on sched.Flusher's rule (MaxBatch/MaxDelay,
// idle-flush, deterministic Close drain); the Merkle construction is
// the certificate-transparency one (RFC 6962): domain-separated leaf
// and node hashes, trees split at the largest power of two.
package audit

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
	"slices"
)

// Typed errors for record and proof validation. Callers match with
// errors.Is; every decode/verify failure wraps one of these.
var (
	// ErrRecordCorrupt marks a record whose canonical bytes fail to
	// decode or whose decoded fields disagree with the proof envelope.
	ErrRecordCorrupt = errors.New("audit: record corrupt")
	// ErrProofInvalid marks an inclusion proof whose replayed root does
	// not match the anchored root (or whose shape is impossible).
	ErrProofInvalid = errors.New("audit: inclusion proof invalid")
	// ErrRootNotAnchored marks a proof whose batch root is absent from
	// the ledger the verifier trusts.
	ErrRootNotAnchored = errors.New("audit: root not anchored in ledger")
	// ErrLedgerCorrupt marks a ledger file whose header, entry CRC,
	// hash chain, or sequence numbering fails validation.
	ErrLedgerCorrupt = errors.New("audit: ledger corrupt")
	// ErrClosed is returned by operations on a closed Auditor or Ledger.
	ErrClosed = errors.New("audit: closed")
)

// recordVersion is the canonical-encoding version byte. Bump only with
// a new decode branch: anchored roots commit to these exact bytes.
const recordVersion = 1

// Record is one per-request privacy evidence entry. The canonical
// encoding (Marshal) is what gets leaf-hashed; all multi-byte fields
// are big-endian so the bytes are platform-independent.
type Record struct {
	// Trace is the request trace ID (obs.TraceID), the retrieval key.
	Trace uint64
	// UnixNanos is the server receive timestamp.
	UnixNanos int64
	// Model and Cut identify the deployed remote half ("lenet", "conv2").
	Model string
	// Cut names the split point the record's activation crossed.
	Cut string
	// Mode is the noise source mode (core.ModeStored / ModeFitted /
	// ModeFittedMul) or "none" when serving without noise attribution.
	Mode string
	// Member is the sampled collection member, -1 for fresh per-query
	// sampling (fitted modes), -2 when the edge did not attribute one.
	Member int32
	// InVivo is the realized in-vivo 1/SNR the privacy monitor computed
	// for this query; meaningful only when Sampled is true.
	InVivo float64
	// Sampled reports whether the monitor computed InVivo on this query
	// (the monitor samples every Nth draw).
	Sampled bool
	// ActDigest is SHA-256 over the activation payload the server
	// received — the noised bytes the cloud actually saw.
	ActDigest [32]byte
}

// recordFixedLen is the encoded size excluding the three string fields.
const recordFixedLen = 1 + 8 + 8 + 3*2 + 4 + 1 + 8 + 32

// maxRecordString bounds each string field; the length prefix is uint16.
const maxRecordString = math.MaxUint16

// Marshal renders the canonical v1 encoding:
//
//	byte     version (1)
//	uint64   Trace
//	int64    UnixNanos
//	uint16+n Model
//	uint16+n Cut
//	uint16+n Mode
//	int32    Member
//	byte     Sampled
//	uint64   InVivo (IEEE-754 bits)
//	[32]byte ActDigest
func (r Record) Marshal() ([]byte, error) { return r.AppendTo(nil) }

// AppendTo appends the canonical encoding (Marshal) to buf and returns the
// extended slice: a caller that keeps its buffer encodes without allocating.
// An unencodable record leaves buf as it was.
func (r Record) AppendTo(buf []byte) ([]byte, error) {
	for _, s := range []string{r.Model, r.Cut, r.Mode} {
		if len(s) > maxRecordString {
			return buf, fmt.Errorf("%w: string field %d bytes exceeds %d", ErrRecordCorrupt, len(s), maxRecordString)
		}
	}
	buf = slices.Grow(buf, recordFixedLen+len(r.Model)+len(r.Cut)+len(r.Mode))
	buf = append(buf, recordVersion)
	buf = binary.BigEndian.AppendUint64(buf, r.Trace)
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.UnixNanos))
	for _, s := range []string{r.Model, r.Cut, r.Mode} {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
		buf = append(buf, s...)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(r.Member))
	if r.Sampled {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(r.InVivo))
	buf = append(buf, r.ActDigest[:]...)
	return buf, nil
}

// UnmarshalRecord decodes canonical bytes back into a Record. Any
// structural problem — wrong version, short buffer, trailing bytes —
// wraps ErrRecordCorrupt.
func UnmarshalRecord(b []byte) (Record, error) {
	var r Record
	if len(b) < recordFixedLen {
		return r, fmt.Errorf("%w: %d bytes, need at least %d", ErrRecordCorrupt, len(b), recordFixedLen)
	}
	if b[0] != recordVersion {
		return r, fmt.Errorf("%w: unknown version %d", ErrRecordCorrupt, b[0])
	}
	p := 1
	r.Trace = binary.BigEndian.Uint64(b[p:])
	p += 8
	r.UnixNanos = int64(binary.BigEndian.Uint64(b[p:]))
	p += 8
	for _, dst := range []*string{&r.Model, &r.Cut, &r.Mode} {
		if len(b) < p+2 {
			return Record{}, fmt.Errorf("%w: truncated string length", ErrRecordCorrupt)
		}
		n := int(binary.BigEndian.Uint16(b[p:]))
		p += 2
		if len(b) < p+n {
			return Record{}, fmt.Errorf("%w: truncated string body", ErrRecordCorrupt)
		}
		*dst = string(b[p : p+n])
		p += n
	}
	if len(b) != p+4+1+8+32 {
		return Record{}, fmt.Errorf("%w: %d trailing or missing bytes", ErrRecordCorrupt, len(b)-(p+4+1+8+32))
	}
	r.Member = int32(binary.BigEndian.Uint32(b[p:]))
	p += 4
	switch b[p] {
	case 0:
		r.Sampled = false
	case 1:
		r.Sampled = true
	default:
		return Record{}, fmt.Errorf("%w: bad Sampled byte %d", ErrRecordCorrupt, b[p])
	}
	p++
	r.InVivo = math.Float64frombits(binary.BigEndian.Uint64(b[p:]))
	p += 8
	copy(r.ActDigest[:], b[p:])
	return r, nil
}

// DigestActivation hashes an activation payload the way record emission
// does: a domain tag, the shape (so reshapes change the digest), and
// the raw payload bytes.
func DigestActivation(tag string, shape []int, payload []byte) [32]byte {
	var d Digester
	return d.Activation([]byte(tag), shape, payload)
}

// DigestFloats is DigestActivation over the little-endian float64 bytes of
// data, which it streams through a fixed-size chunk instead of
// materializing: the digest of a dense activation costs no copy of it.
func DigestFloats(tag string, shape []int, data []float64) [32]byte {
	var d Digester
	return d.Floats([]byte(tag), shape, data)
}

// Digester computes activation digests through one SHA-256 state and one
// staging buffer it keeps between calls, so a server that holds one per
// request in flight digests without allocating. The zero value is ready to
// use; a Digester serves one goroutine at a time.
type Digester struct {
	h   hash.Hash
	buf []byte // the preamble, then the chunks of a dense payload
	sum [32]byte
}

// begin starts a digest: everything but the payload.
func (d *Digester) begin(tag []byte, shape []int) {
	if d.h == nil {
		d.h = sha256.New()
	}
	d.h.Reset()
	b := append(d.buf[:0], "shredder-act/1\x00"...)
	b = append(append(b, tag...), 0)
	b = binary.BigEndian.AppendUint64(b, uint64(len(shape)))
	for _, dim := range shape {
		b = binary.BigEndian.AppendUint64(b, uint64(dim))
	}
	d.h.Write(b)
	d.buf = b
}

func (d *Digester) end() [32]byte {
	d.h.Sum(d.sum[:0])
	return d.sum
}

// Activation is DigestActivation.
func (d *Digester) Activation(tag []byte, shape []int, payload []byte) [32]byte {
	d.begin(tag, shape)
	d.h.Write(payload)
	return d.end()
}

// Floats is DigestFloats.
func (d *Digester) Floats(tag []byte, shape []int, data []float64) [32]byte {
	d.begin(tag, shape)
	const chunk = 4096
	if cap(d.buf) < chunk {
		d.buf = make([]byte, chunk)
	}
	b := d.buf[:chunk]
	for len(data) > 0 {
		n := min(len(data), chunk/8)
		for i, v := range data[:n] {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		d.h.Write(b[:8*n])
		data = data[n:]
	}
	return d.end()
}
