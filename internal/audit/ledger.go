package audit

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"
)

// AnchoredRoot is one sealed batch's commitment: the batch sequence
// number, how many records it covers, the Merkle root, and the anchor
// timestamp. Verifiers trust a root only once a ledger has anchored it.
type AnchoredRoot struct {
	Seq       uint64
	Count     int
	Root      [32]byte
	UnixNanos int64
}

// Ledger anchors sealed batch roots. Implementations must accept
// strictly consecutive sequence numbers starting at 0 and must make an
// anchored root durable (to the implementation's standard) before
// returning.
type Ledger interface {
	// Anchor commits one root. Called from a single goroutine in
	// ascending Seq order.
	Anchor(r AnchoredRoot) error
	// Roots returns all anchored roots in Seq order.
	Roots() []AnchoredRoot
	// Close releases resources. Anchor after Close returns ErrClosed.
	Close() error
}

// ---------------------------------------------------------------------
// In-memory ledger.

// MemLedger keeps anchored roots in process memory. It is the default
// when no durability is requested: proofs still verify, but restarts
// lose the trail.
type MemLedger struct {
	mu     sync.Mutex
	roots  []AnchoredRoot
	closed bool
}

// NewMemLedger returns an empty in-memory ledger.
func NewMemLedger() *MemLedger { return &MemLedger{} }

// Anchor appends the root after sequence validation.
func (l *MemLedger) Anchor(r AnchoredRoot) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if want := uint64(len(l.roots)); r.Seq != want {
		return fmt.Errorf("%w: anchor seq %d, want %d", ErrLedgerCorrupt, r.Seq, want)
	}
	l.roots = append(l.roots, r)
	return nil
}

// Roots returns a copy of the anchored roots.
func (l *MemLedger) Roots() []AnchoredRoot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]AnchoredRoot(nil), l.roots...)
}

// Close marks the ledger closed.
func (l *MemLedger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}

// ---------------------------------------------------------------------
// Append-only file ledger.

// ledgerMagic is the file header. The version suffix is part of the
// format: entries are fixed-size and hash-chained, so any byte flip is
// detectable.
const ledgerMagic = "shredder-audit-ledger/1\n"

// ledgerEntrySize is the fixed on-disk entry:
//
//	uint64   Seq
//	uint32   Count
//	int64    UnixNanos
//	[32]byte Root
//	[32]byte Chain  = SHA256(prevChain ‖ Seq..Root bytes)
//	uint32   CRC32  (IEEE, over the preceding 84 bytes)
const ledgerEntrySize = 8 + 4 + 8 + 32 + 32 + 4

// FileLedger is an append-only, hash-chained, CRC-guarded ledger file.
// Reopening validates every entry; a trailing partial entry (crash mid
// write) is truncated away, while a mid-file CRC or chain mismatch is
// unrecoverable tampering and returns ErrLedgerCorrupt.
type FileLedger struct {
	mu     sync.Mutex
	f      *os.File
	roots  []AnchoredRoot
	chain  [32]byte              // chain value of the last entry (genesis: hash of header)
	entry  [ledgerEntrySize]byte // the entry being appended, encoded here under mu
	closed bool
	// Recovered counts trailing bytes truncated during open — nonzero
	// means the previous process died mid-append.
	Recovered int
	// NoSync skips fsync per anchor (benchmarks only).
	NoSync bool
}

// genesisChain seeds the hash chain from the header bytes.
func genesisChain() [32]byte { return sha256.Sum256([]byte(ledgerMagic)) }

// chainNext advances the hash chain over one entry's committed fields.
func chainNext(prev [32]byte, payload []byte) [32]byte {
	h := sha256.New()
	h.Write(prev[:])
	h.Write(payload)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// OpenFileLedger opens (or creates) a ledger file at path, replaying
// and validating existing entries.
func OpenFileLedger(path string) (*FileLedger, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("audit: open ledger: %w", err)
	}
	l := &FileLedger{f: f, chain: genesisChain()}
	if err := l.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// replay validates the header and every entry, truncating a trailing
// partial entry left by a crash.
func (l *FileLedger) replay() error {
	info, err := l.f.Stat()
	if err != nil {
		return fmt.Errorf("audit: stat ledger: %w", err)
	}
	if info.Size() == 0 {
		if _, err := l.f.Write([]byte(ledgerMagic)); err != nil {
			return fmt.Errorf("audit: write ledger header: %w", err)
		}
		return l.sync()
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	hdr := make([]byte, len(ledgerMagic))
	if _, err := io.ReadFull(l.f, hdr); err != nil {
		return fmt.Errorf("%w: header unreadable: %v", ErrLedgerCorrupt, err)
	}
	if string(hdr) != ledgerMagic {
		return fmt.Errorf("%w: bad header %q", ErrLedgerCorrupt, string(hdr))
	}
	body := info.Size() - int64(len(ledgerMagic))
	whole := body / ledgerEntrySize
	tail := body % ledgerEntrySize
	buf := make([]byte, ledgerEntrySize)
	for i := int64(0); i < whole; i++ {
		if _, err := io.ReadFull(l.f, buf); err != nil {
			return fmt.Errorf("%w: entry %d unreadable: %v", ErrLedgerCorrupt, i, err)
		}
		r, chain, err := decodeLedgerEntry(buf, l.chain, uint64(i))
		if err != nil {
			return err
		}
		l.roots = append(l.roots, r)
		l.chain = chain
	}
	if tail != 0 {
		// Crash mid-append: drop the partial entry and keep going from
		// the last complete one.
		good := int64(len(ledgerMagic)) + whole*ledgerEntrySize
		if err := l.f.Truncate(good); err != nil {
			return fmt.Errorf("audit: truncate partial entry: %w", err)
		}
		l.Recovered = int(tail)
	}
	if _, err := l.f.Seek(0, io.SeekEnd); err != nil {
		return err
	}
	return nil
}

// decodeLedgerEntry validates one fixed-size entry against the expected
// chain value and sequence number.
func decodeLedgerEntry(buf []byte, prevChain [32]byte, wantSeq uint64) (AnchoredRoot, [32]byte, error) {
	payload := buf[:8+4+8+32]
	wantCRC := binary.BigEndian.Uint32(buf[ledgerEntrySize-4:])
	if got := crc32.ChecksumIEEE(buf[:ledgerEntrySize-4]); got != wantCRC {
		return AnchoredRoot{}, [32]byte{}, fmt.Errorf("%w: entry %d CRC mismatch", ErrLedgerCorrupt, wantSeq)
	}
	var r AnchoredRoot
	r.Seq = binary.BigEndian.Uint64(buf[0:])
	r.Count = int(binary.BigEndian.Uint32(buf[8:]))
	r.UnixNanos = int64(binary.BigEndian.Uint64(buf[12:]))
	copy(r.Root[:], buf[20:52])
	var chain [32]byte
	copy(chain[:], buf[52:84])
	if r.Seq != wantSeq {
		return AnchoredRoot{}, [32]byte{}, fmt.Errorf("%w: entry seq %d, want %d", ErrLedgerCorrupt, r.Seq, wantSeq)
	}
	if want := chainNext(prevChain, payload); chain != want {
		return AnchoredRoot{}, [32]byte{}, fmt.Errorf("%w: entry %d hash chain broken", ErrLedgerCorrupt, wantSeq)
	}
	return r, chain, nil
}

// Anchor appends one entry and fsyncs it.
func (l *FileLedger) Anchor(r AnchoredRoot) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if want := uint64(len(l.roots)); r.Seq != want {
		return fmt.Errorf("%w: anchor seq %d, want %d", ErrLedgerCorrupt, r.Seq, want)
	}
	buf := binary.BigEndian.AppendUint64(l.entry[:0], r.Seq)
	buf = binary.BigEndian.AppendUint32(buf, uint32(r.Count))
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.UnixNanos))
	buf = append(buf, r.Root[:]...)
	chain := chainNext(l.chain, buf)
	buf = append(buf, chain[:]...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("audit: append ledger entry: %w", err)
	}
	if err := l.sync(); err != nil {
		return err
	}
	l.roots = append(l.roots, r)
	l.chain = chain
	return nil
}

func (l *FileLedger) sync() error {
	if l.NoSync {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("audit: sync ledger: %w", err)
	}
	return nil
}

// Roots returns a copy of the anchored roots.
func (l *FileLedger) Roots() []AnchoredRoot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]AnchoredRoot(nil), l.roots...)
}

// Close flushes and closes the file.
func (l *FileLedger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}

// ---------------------------------------------------------------------
// Mock-latency ledger.

// LatencyLedger wraps a Ledger and sleeps per anchor, standing in for a
// remote transparency service in benchmarks — it makes "anchor cost is
// off the serving path" measurable rather than vacuously true.
type LatencyLedger struct {
	Inner Ledger
	Delay time.Duration
}

// WithLatency wraps inner so every Anchor takes at least d.
func WithLatency(inner Ledger, d time.Duration) *LatencyLedger {
	return &LatencyLedger{Inner: inner, Delay: d}
}

// Anchor sleeps then delegates.
func (l *LatencyLedger) Anchor(r AnchoredRoot) error {
	if l.Delay > 0 {
		time.Sleep(l.Delay)
	}
	return l.Inner.Anchor(r)
}

// Roots delegates.
func (l *LatencyLedger) Roots() []AnchoredRoot { return l.Inner.Roots() }

// Close delegates.
func (l *LatencyLedger) Close() error { return l.Inner.Close() }
