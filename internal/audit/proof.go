package audit

import (
	"encoding/hex"
	"fmt"
)

// InclusionProof is the client-verifiable artifact served from
// /debug/audit?trace=…: the canonical record bytes, the record's
// position in its sealed batch, the sibling path, and the batch root.
// All hashes are hex so the proof survives JSON round-trips byte-exact.
type InclusionProof struct {
	// Trace is the record's trace ID, zero-padded hex (the lookup key).
	Trace string `json:"trace"`
	// Seq is the sealed batch's sequence number — the anchored root to
	// check against.
	Seq uint64 `json:"seq"`
	// Index is the record's leaf position within the batch.
	Index int `json:"index"`
	// Count is the number of leaves in the batch.
	Count int `json:"count"`
	// Record is the canonical record encoding, hex.
	Record string `json:"record"`
	// Path lists sibling subtree roots leaf-to-root, hex.
	Path []string `json:"path"`
	// Root is the batch's Merkle root, hex.
	Root string `json:"root"`
}

// newInclusionProof assembles the proof for leaf index of a sealed
// batch: everything in it is a copy, nothing points into the batch's buffers.
// Caller guarantees index is in range and holds the auditor's mutex.
func newInclusionProof(sb *SealedBatch, index int) *InclusionProof {
	path := MerklePath(sb.Leaves, index)
	p := &InclusionProof{
		Trace:  fmt.Sprintf("%016x", sb.traces[index]),
		Seq:    sb.Seq,
		Index:  index,
		Count:  len(sb.Leaves),
		Record: hex.EncodeToString(sb.record(index)),
		Path:   make([]string, len(path)),
		Root:   hex.EncodeToString(sb.Root[:]),
	}
	for i, h := range path {
		p.Path[i] = hex.EncodeToString(h[:])
	}
	return p
}

// Verify replays the proof: decode the canonical record, recompute its
// leaf hash, and fold the sibling path back into a root. It returns the
// decoded Record on success. A record that fails to decode or whose
// trace disagrees with the envelope wraps ErrRecordCorrupt; a path that
// does not reproduce the claimed root wraps ErrProofInvalid. Verify
// does NOT consult a ledger — use VerifyAgainst for that.
func (p *InclusionProof) Verify() (Record, error) {
	raw, err := hex.DecodeString(p.Record)
	if err != nil {
		return Record{}, fmt.Errorf("%w: record hex: %v", ErrRecordCorrupt, err)
	}
	rec, err := UnmarshalRecord(raw)
	if err != nil {
		return Record{}, err
	}
	if p.Trace != "" && p.Trace != fmt.Sprintf("%016x", rec.Trace) {
		return Record{}, fmt.Errorf("%w: envelope trace %s != record trace %016x",
			ErrRecordCorrupt, p.Trace, rec.Trace)
	}
	path := make([][32]byte, len(p.Path))
	for i, s := range p.Path {
		if err := decodeHash(s, &path[i]); err != nil {
			return Record{}, fmt.Errorf("%w: path[%d]: %v", ErrProofInvalid, i, err)
		}
	}
	var root [32]byte
	if err := decodeHash(p.Root, &root); err != nil {
		return Record{}, fmt.Errorf("%w: root: %v", ErrProofInvalid, err)
	}
	if err := VerifyInclusion(LeafHash(raw), p.Index, p.Count, path, root); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// VerifyAgainst runs Verify and then checks the proof's root is one the
// ledger anchored under Seq with the same leaf count. The root set may
// be a fleet union (gateway merge), where independent backends reuse
// the same sequence numbers — a proof is accepted if ANY anchor matches
// exactly, and rejected with ErrRootNotAnchored only when none does.
func (p *InclusionProof) VerifyAgainst(roots []AnchoredRoot) (Record, error) {
	rec, err := p.Verify()
	if err != nil {
		return Record{}, err
	}
	seqSeen := false
	for _, ar := range roots {
		if ar.Seq != p.Seq {
			continue
		}
		seqSeen = true
		if hex.EncodeToString(ar.Root[:]) == p.Root && ar.Count == p.Count {
			return rec, nil
		}
	}
	if seqSeen {
		return Record{}, fmt.Errorf("%w: seq %d anchored, but every anchored root differs from the proof's", ErrRootNotAnchored, p.Seq)
	}
	return Record{}, fmt.Errorf("%w: no anchor for seq %d among %d roots", ErrRootNotAnchored, p.Seq, len(roots))
}

// decodeHash parses a 32-byte hex hash.
func decodeHash(s string, dst *[32]byte) error {
	b, err := hex.DecodeString(s)
	if err != nil {
		return err
	}
	if len(b) != 32 {
		return fmt.Errorf("hash is %d bytes, want 32", len(b))
	}
	copy(dst[:], b)
	return nil
}
