package audit

// Fuzz targets for the two things a client hands the audit trail back —
// canonical record bytes, and an inclusion proof over them — and for the one
// file a server reads back at start-up, its ledger.

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
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

// anchorFile writes roots into a fresh ledger file at path and returns its
// bytes.
func anchorFile(t testing.TB, path string, roots []AnchoredRoot) []byte {
	l, err := OpenFileLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	l.NoSync = true
	for _, r := range roots {
		if err := l.Anchor(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzOpenFileLedger: any bytes in a ledger file either open or are refused
// with ErrLedgerCorrupt, and never panic. A file that opens replays roots
// that re-verify: anchored afresh into an empty ledger they write the file's
// complete entries byte for byte — header, sequence, hash chain and CRCs —
// and the partial entry after them, if any, is what Recovered reports.
func FuzzOpenFileLedger(f *testing.F) {
	var roots []AnchoredRoot
	for i := 0; i < 3; i++ {
		r := AnchoredRoot{Seq: uint64(i), Count: i + 1, UnixNanos: int64(1e18) + int64(i)}
		r.Root[0], r.Root[31] = byte(i), 0xa5
		roots = append(roots, r)
	}
	good := anchorFile(f, filepath.Join(f.TempDir(), "seed"), roots)
	f.Add(good)
	f.Add(good[:len(good)-5])                // torn last entry
	f.Add(good[:len(ledgerMagic)])           // header only
	f.Add([]byte{})                          // a new file
	f.Add(append([]byte(nil), good[:10]...)) // torn header
	flipped := append([]byte(nil), good...)
	flipped[len(ledgerMagic)+100] ^= 1 // inside the second entry
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "ledger")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenFileLedger(path)
		if err != nil {
			if !errors.Is(err, ErrLedgerCorrupt) {
				t.Fatalf("refused with %v, not ErrLedgerCorrupt", err)
			}
			return
		}
		replayed, recovered := l.Roots(), l.Recovered
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		kept := b[:len(b)-recovered]
		if len(b) == 0 {
			kept = []byte(ledgerMagic) // the header a new file is given
		}
		if again := anchorFile(t, filepath.Join(dir, "again"), replayed); !bytes.Equal(again, kept) {
			t.Fatalf("%d replayed roots (%d bytes recovered) re-anchor to %d bytes, not the %d the file kept",
				len(replayed), recovered, len(again), len(kept))
		}
	})
}
