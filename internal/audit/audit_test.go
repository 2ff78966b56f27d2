package audit

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func testRecord(i int) Record {
	var digest [32]byte
	binary.BigEndian.PutUint64(digest[:], uint64(i)*0x9e3779b97f4a7c15)
	return Record{
		Trace:     uint64(i + 1),
		UnixNanos: int64(1700000000_000000000 + i),
		Model:     "lenet",
		Cut:       "conv2",
		Mode:      "fitted",
		Member:    -1,
		InVivo:    3.25 + float64(i)/16,
		Sampled:   i%3 == 0,
		ActDigest: digest,
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for i := 0; i < 8; i++ {
		r := testRecord(i)
		raw, err := r.Marshal()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		got, err := UnmarshalRecord(raw)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if got != r {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, r)
		}
	}
}

func TestRecordDecodeCorrupt(t *testing.T) {
	r := testRecord(0)
	raw, _ := r.Marshal()

	cases := map[string][]byte{
		"empty":       {},
		"short":       raw[:10],
		"bad version": append([]byte{99}, raw[1:]...),
		"trailing":    append(append([]byte{}, raw...), 0xff),
		"truncated":   raw[:len(raw)-5],
	}
	for name, b := range cases {
		if _, err := UnmarshalRecord(b); !errors.Is(err, ErrRecordCorrupt) {
			t.Errorf("%s: err = %v, want ErrRecordCorrupt", name, err)
		}
	}

	// A flipped Sampled byte (index recomputed from layout) is caught.
	bad := append([]byte{}, raw...)
	bad[len(bad)-32-8-1] = 7
	if _, err := UnmarshalRecord(bad); !errors.Is(err, ErrRecordCorrupt) {
		t.Errorf("bad sampled byte: err = %v, want ErrRecordCorrupt", err)
	}
}

func TestMerkleInclusionAllSizes(t *testing.T) {
	for n := 1; n <= 17; n++ {
		leaves := make([][32]byte, n)
		for i := range leaves {
			raw, _ := testRecord(i).Marshal()
			leaves[i] = LeafHash(raw)
		}
		root := MerkleRoot(leaves)
		for i := 0; i < n; i++ {
			path := MerklePath(leaves, i)
			if err := VerifyInclusion(leaves[i], i, n, path, root); err != nil {
				t.Fatalf("n=%d i=%d: %v", n, i, err)
			}
			// The same path must not validate a different leaf.
			var wrong [32]byte
			copy(wrong[:], leaves[i][:])
			wrong[0] ^= 1
			if err := VerifyInclusion(wrong, i, n, path, root); !errors.Is(err, ErrProofInvalid) {
				t.Fatalf("n=%d i=%d tampered leaf: err = %v, want ErrProofInvalid", n, i, err)
			}
		}
		// Impossible shapes.
		if err := VerifyInclusion(leaves[0], n, n, nil, root); !errors.Is(err, ErrProofInvalid) {
			t.Fatalf("n=%d out-of-range index: %v", n, err)
		}
	}
}

func TestMemLedgerSequencing(t *testing.T) {
	l := NewMemLedger()
	if err := l.Anchor(AnchoredRoot{Seq: 1}); !errors.Is(err, ErrLedgerCorrupt) {
		t.Fatalf("gap seq: err = %v, want ErrLedgerCorrupt", err)
	}
	if err := l.Anchor(AnchoredRoot{Seq: 0}); err != nil {
		t.Fatalf("seq 0: %v", err)
	}
	if err := l.Anchor(AnchoredRoot{Seq: 0}); !errors.Is(err, ErrLedgerCorrupt) {
		t.Fatalf("replayed seq: err = %v, want ErrLedgerCorrupt", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Anchor(AnchoredRoot{Seq: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("after close: err = %v, want ErrClosed", err)
	}
}

func fileLedgerWith(t *testing.T, path string, n int) []AnchoredRoot {
	t.Helper()
	l, err := OpenFileLedger(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var want []AnchoredRoot
	for i := 0; i < n; i++ {
		raw, _ := testRecord(i).Marshal()
		r := AnchoredRoot{Seq: uint64(i), Count: i + 1, Root: LeafHash(raw), UnixNanos: int64(i) * 1000}
		if err := l.Anchor(r); err != nil {
			t.Fatalf("anchor %d: %v", i, err)
		}
		want = append(want, r)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return want
}

func TestFileLedgerReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	want := fileLedgerWith(t, path, 5)

	l, err := OpenFileLedger(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	got := l.Roots()
	if len(got) != len(want) {
		t.Fatalf("reopened %d roots, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("root %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	// And appends continue the chain.
	if err := l.Anchor(AnchoredRoot{Seq: 5, Count: 1}); err != nil {
		t.Fatalf("anchor after reopen: %v", err)
	}
}

func TestFileLedgerCrashTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	fileLedgerWith(t, path, 3)

	// Simulate a crash mid-append: leave half an entry at the tail.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, ledgerEntrySize/2)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l, err := OpenFileLedger(path)
	if err != nil {
		t.Fatalf("reopen after partial append: %v", err)
	}
	defer l.Close()
	if l.Recovered != ledgerEntrySize/2 {
		t.Fatalf("Recovered = %d, want %d", l.Recovered, ledgerEntrySize/2)
	}
	if got := len(l.Roots()); got != 3 {
		t.Fatalf("roots after recovery = %d, want 3", got)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != info.Size() {
		t.Fatalf("file not truncated back: %d, want %d", after.Size(), info.Size())
	}
}

func TestFileLedgerDetectsTampering(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	fileLedgerWith(t, path, 3)

	flip := func(t *testing.T, off int64) {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[off] ^= 0x01
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Flip one byte inside entry 1's root (after the header and entry 0):
	// both the CRC and the hash chain break.
	off := int64(len(ledgerMagic) + ledgerEntrySize + 25)
	flip(t, off)
	if _, err := OpenFileLedger(path); !errors.Is(err, ErrLedgerCorrupt) {
		t.Fatalf("tampered entry: err = %v, want ErrLedgerCorrupt", err)
	}
	flip(t, off) // restore

	// A forged entry whose CRC was recomputed still breaks the chain:
	// rewrite entry 1's root AND its CRC.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	entry := b[len(ledgerMagic)+ledgerEntrySize : len(ledgerMagic)+2*ledgerEntrySize]
	entry[25] ^= 0x01
	crc := crc32.ChecksumIEEE(entry[:ledgerEntrySize-4])
	binary.BigEndian.PutUint32(entry[ledgerEntrySize-4:], crc)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileLedger(path); !errors.Is(err, ErrLedgerCorrupt) {
		t.Fatalf("forged entry: err = %v, want ErrLedgerCorrupt", err)
	}

	// A clobbered header is detected too.
	b[0] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileLedger(path); !errors.Is(err, ErrLedgerCorrupt) {
		t.Fatalf("bad header: err = %v, want ErrLedgerCorrupt", err)
	}
}

// announcingLedger sends the record count of every root once it is anchored.
type announcingLedger struct {
	Ledger
	anchored chan<- int
}

func (l announcingLedger) Anchor(r AnchoredRoot) error {
	err := l.Ledger.Anchor(r)
	l.anchored <- r.Count
	return err
}

func TestAuditorSealsAndProves(t *testing.T) {
	const n = 13
	anchored := make(chan int, n) // one send per batch, and a batch holds a record at least
	a := New(Options{MaxBatch: 4, MaxDelay: time.Millisecond, Ledger: announcingLedger{NewMemLedger(), anchored}})
	for i := 0; i < n; i++ {
		if err := a.Append(testRecord(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	a.Flush()
	// Flush sealed whatever was pending; every record is anchored once the
	// ledger has announced batches that hold all n.
	for got := 0; got < n; {
		select {
		case count := <-anchored:
			got += count
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d records anchored: %+v", got, n, a.Summarize())
		}
	}
	if s := a.Summarize(); s.Pending != 0 || s.Queued != 0 || s.Records != n {
		t.Fatalf("auditor did not settle: %+v", s)
	}

	roots := a.Roots()
	if len(roots) == 0 {
		t.Fatal("no anchored roots")
	}
	for i := 0; i < n; i++ {
		p, ok := a.ProofByTrace(uint64(i + 1))
		if !ok {
			t.Fatalf("no proof for trace %d", i+1)
		}
		rec, err := p.VerifyAgainst(roots)
		if err != nil {
			t.Fatalf("verify trace %d: %v", i+1, err)
		}
		if rec != testRecord(i) {
			t.Fatalf("trace %d decoded to wrong record", i+1)
		}
	}
	if _, ok := a.ProofByTrace(0xdead); ok {
		t.Fatal("proof served for unknown trace")
	}

	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Append(testRecord(99)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: err = %v, want ErrClosed", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestAuditorCloseDrainsMidBatch is the kill-server-mid-batch
// guarantee: records appended moments before Close — behind a slow
// ledger, so several batches are still queued unanchored — must all be
// sealed and anchored by the time Close returns. No sealed batch is
// lost.
func TestAuditorCloseDrainsMidBatch(t *testing.T) {
	mem := NewMemLedger()
	a := New(Options{
		MaxBatch: 4,
		MaxDelay: 50 * time.Millisecond, // long: Close, not the timer, must flush
		Ledger:   WithLatency(mem, 2*time.Millisecond),
	})
	const n = 11
	for i := 0; i < n; i++ {
		if err := a.Append(testRecord(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	// Close immediately: pending records are mid-batch, queued batches
	// are mid-anchor.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	roots := mem.Roots()
	total := 0
	for _, r := range roots {
		total += r.Count
	}
	if total != n {
		t.Fatalf("anchored %d records across %d batches, want %d", total, len(roots), n)
	}
	// Every record remains provable after Close.
	for i := 0; i < n; i++ {
		p, ok := a.ProofByTrace(uint64(i + 1))
		if !ok {
			t.Fatalf("no proof for trace %d after close", i+1)
		}
		if _, err := p.VerifyAgainst(roots); err != nil {
			t.Fatalf("verify trace %d after close: %v", i+1, err)
		}
	}
}

func TestAuditorEvictsOldBatches(t *testing.T) {
	a := New(Options{MaxBatch: 1, KeepBatches: 2})
	defer a.Close()
	for i := 0; i < 6; i++ {
		if err := a.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	a.Flush()
	s := a.Summarize()
	if s.Kept > 2 {
		t.Fatalf("ring holds %d batches, cap 2", s.Kept)
	}
	if s.Evicted == 0 {
		t.Fatal("expected evictions")
	}
	if _, ok := a.ProofByTrace(1); ok {
		t.Fatal("evicted trace still served")
	}
}

// TestEvictionForgetsEveryTrace: a batch leaving the proof ring takes its
// traces out of the index, read from the trace IDs the batch keeps beside its
// records — the index stays as small as the ring however many batches pass
// through — except a trace a later batch sealed again, which must keep
// pointing at the later record.
func TestEvictionForgetsEveryTrace(t *testing.T) {
	a := New(Options{MaxBatch: 1, KeepBatches: 2}) // every record seals at once, alone
	defer a.Close()
	indexed := func() int {
		a.mu.Lock()
		defer a.mu.Unlock()
		return len(a.byTrace)
	}
	const again = 1 << 40 // the trace of batches 7 and 9
	for batch := 0; batch < 10; batch++ {
		r := testRecord(batch)
		if batch == 7 || batch == 9 {
			r.Trace = again
		}
		if err := a.Append(r); err != nil {
			t.Fatal(err)
		}
		if n := indexed(); n > 2 {
			t.Fatalf("after %d batches the index holds %d traces, the ring 2 records", batch+1, n)
		}
	}
	if s := a.Summarize(); s.Kept != 2 || s.Evicted != 8 {
		t.Fatalf("ring keeps %d batches after %d evictions, want 2 after 8", s.Kept, s.Evicted)
	}
	if n := indexed(); n != 2 {
		t.Fatalf("the index holds %d traces, the ring 2", n)
	}
	if p, ok := a.ProofByTrace(again); !ok || p.Seq != 9 {
		t.Fatalf("the trace sealed twice resolves to %+v, want its record in batch 9", p)
	}
	if _, ok := a.ProofByTrace(testRecord(6).Trace); ok {
		t.Fatal("a trace of an evicted batch is still served")
	}
}

func TestProofTamperDetection(t *testing.T) {
	// An idle auditor seals a record the moment it arrives. The slow anchor
	// keeps it busy with the first, so the other four seal together and the
	// proof below sits in a batch where a shifted index is another leaf.
	a := New(Options{MaxBatch: 8, Ledger: WithLatency(NewMemLedger(), 50*time.Millisecond)})
	for i := 0; i < 5; i++ {
		if err := a.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	roots := a.Roots()
	p, ok := a.ProofByTrace(3)
	if !ok {
		t.Fatal("no proof")
	}

	// Corrupted record bytes: decode still works but the leaf changes.
	tampered := *p
	raw := []byte(tampered.Record)
	raw[len(raw)-1] ^= 0x01 // flip a hex nibble of the digest
	tampered.Record = string(raw)
	if _, err := tampered.VerifyAgainst(roots); !errors.Is(err, ErrProofInvalid) && !errors.Is(err, ErrRecordCorrupt) {
		t.Fatalf("tampered record: err = %v, want ErrProofInvalid/ErrRecordCorrupt", err)
	}

	// Unanchored root: proof validates internally but no ledger entry.
	orphan := *p
	orphan.Seq = 999
	if _, err := orphan.VerifyAgainst(roots); !errors.Is(err, ErrRootNotAnchored) {
		t.Fatalf("orphan seq: err = %v, want ErrRootNotAnchored", err)
	}

	// Wrong index: the path no longer replays to the root.
	if p.Count < 2 {
		t.Fatalf("record sealed alone (batch of %d): the appends above took longer than the anchor", p.Count)
	}
	shifted := *p
	shifted.Index = (p.Index + 1) % p.Count
	if _, err := shifted.VerifyAgainst(roots); !errors.Is(err, ErrProofInvalid) {
		t.Fatalf("shifted index: err = %v, want ErrProofInvalid", err)
	}
}

func ExampleRecord_Marshal() {
	r := testRecordForExample()
	raw, _ := r.Marshal()
	rec, _ := UnmarshalRecord(raw)
	fmt.Println(rec.Model, rec.Mode, rec.Member)
	// Output: lenet fitted -1
}

func testRecordForExample() Record {
	return Record{Trace: 1, Model: "lenet", Cut: "conv2", Mode: "fitted", Member: -1}
}
