package audit

// Fuzz targets for the two things a client hands the audit trail back:
// canonical record bytes, and an inclusion proof over them.

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"
	"time"
)

// FuzzUnmarshalRecord: bytes UnmarshalRecord accepts re-marshal to exactly
// those bytes — the encoding is canonical — and bytes it refuses are
// refused with ErrRecordCorrupt.
func FuzzUnmarshalRecord(f *testing.F) {
	for i := 0; i < 4; i++ {
		raw, err := testRecord(i).Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)-1])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := UnmarshalRecord(b)
		if err != nil {
			if !errors.Is(err, ErrRecordCorrupt) {
				t.Fatalf("refused with %v, not ErrRecordCorrupt", err)
			}
			return
		}
		again, err := r.Marshal()
		if err != nil {
			t.Fatalf("an accepted record does not marshal: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("accepted %x, re-marshals to %x", b, again)
		}
	})
}

// FuzzVerifyProof: a proof of a record in a sealed batch, served after the
// proof ring has wrapped, verifies — to the record appended under its trace
// — and stops verifying when any one byte of its trace, record, path or root
// is flipped.
func FuzzVerifyProof(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint16(0), byte(0))
	f.Add(uint8(1), uint8(4), uint8(1), uint16(20), byte(1))
	f.Add(uint8(4), uint8(9), uint8(3), uint16(500), byte(0x80))
	f.Fuzz(func(t *testing.T, shape, extra, pick uint8, pos uint16, mask byte) {
		// The anchor is held throughout: the first record seals alone, then
		// every batch seals when it holds m records and Flush seals the rest.
		// Two batches are kept and at least three are sealed.
		const keep = 2
		m := 2 + int(shape)%5
		n := 2*m + 2 + int(extra)%(3*m)
		ledger := new(heldLedger)
		gate := make(chan struct{})
		ledger.held.Store(&gate)
		a := New(Options{MaxBatch: m, KeepBatches: keep, MaxDelay: time.Hour, Ledger: ledger})
		defer func() {
			ledger.held.Store(nil)
			close(gate)
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
		}()
		for i := 0; i < n; i++ {
			if err := a.Append(testRecord(i)); err != nil {
				t.Fatal(err)
			}
		}
		a.Flush()
		if s := a.Summarize(); s.Evicted == 0 {
			t.Fatalf("the ring has not wrapped: %+v", s)
		}
		// The last batch holds record n-1 and the one before it m records.
		target := n - 1 - int(pick)%m
		p, ok := a.ProofByTrace(testRecord(target).Trace)
		if !ok {
			t.Fatalf("record %d of %d, in the last two batches, is not served", target, n)
		}

		// The proof's bytes: trace, record, path, root.
		fields := [][]byte{[]byte(p.Trace), unhex(t, p.Record)}
		for _, h := range p.Path {
			fields = append(fields, unhex(t, h))
		}
		fields = append(fields, unhex(t, p.Root))
		total := 0
		for _, b := range fields {
			total += len(b)
		}
		at := int(pos) % total
		for _, b := range fields {
			if at < len(b) {
				b[at] ^= mask
				break
			}
			at -= len(b)
		}
		q := *p
		q.Trace, q.Record = string(fields[0]), hex.EncodeToString(fields[1])
		q.Path = make([]string, len(p.Path))
		for i := range q.Path {
			q.Path[i] = hex.EncodeToString(fields[2+i])
		}
		q.Root = hex.EncodeToString(fields[len(fields)-1])

		rec, err := q.Verify()
		switch {
		case mask == 0 && err != nil:
			t.Fatalf("the untouched proof of record %d does not verify: %v", target, err)
		case mask == 0 && rec != testRecord(target):
			t.Fatalf("the proof of record %d carries %+v", target, rec)
		case mask != 0 && err == nil:
			t.Fatalf("the proof of record %d verifies with byte %d flipped by %#x", target, int(pos)%total, mask)
		}
	})
}

func unhex(t *testing.T, s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
