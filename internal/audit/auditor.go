package audit

import (
	"fmt"
	"sync"
	"time"

	"shredder/internal/obs"
	"shredder/internal/sched"
)

// Options tune an Auditor. The zero value selects the defaults.
type Options struct {
	// MaxBatch caps how many records one sealed batch may carry
	// (default 64). Reaching it seals at once.
	MaxBatch int
	// MaxDelay bounds how long an appended record may wait unsealed
	// behind an in-flight anchor (default 5ms). An idle auditor seals
	// immediately — coalescing emerges from anchor latency, exactly as
	// batching emerges from flight latency in sched.Batcher.
	MaxDelay time.Duration
	// Ledger anchors sealed roots; nil selects an in-memory ledger. The
	// Auditor owns the ledger either way: Close closes it.
	Ledger Ledger
	// Metrics, when non-nil, registers audit.* counters there so they
	// join the shared /debug/metrics snapshot.
	Metrics *obs.Registry
	// KeepBatches bounds the sealed-batch ring held in memory for proof
	// service (default 256 batches). Older batches stay anchored in the
	// ledger but can no longer serve inclusion proofs.
	KeepBatches int
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = 5 * time.Millisecond
	}
	if o.Ledger == nil {
		o.Ledger = NewMemLedger()
	}
	if o.KeepBatches <= 0 {
		o.KeepBatches = 256
	}
	return o
}

// counters holds the Auditor's obs metrics (all nil-safe).
type counters struct {
	records, batches             *obs.Counter
	full, idle, timer, closeSeal *obs.Counter
	anchored, anchorFailures     *obs.Counter
	proofsServed, proofsMissed   *obs.Counter
	evicted                      *obs.Counter
	anchorSeconds                *obs.Histogram
}

func newCounters(reg *obs.Registry) counters {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return counters{
		records:        reg.Counter("audit.records"),
		batches:        reg.Counter("audit.batches"),
		full:           reg.Counter("audit.seal.full"),
		idle:           reg.Counter("audit.seal.idle"),
		timer:          reg.Counter("audit.seal.timer"),
		closeSeal:      reg.Counter("audit.seal.close"),
		anchored:       reg.Counter("audit.anchored"),
		anchorFailures: reg.Counter("audit.anchor.failures"),
		proofsServed:   reg.Counter("audit.proofs.served"),
		proofsMissed:   reg.Counter("audit.proofs.missed"),
		evicted:        reg.Counter("audit.batches.evicted"),
		anchorSeconds:  reg.Histogram("audit.anchor_seconds"),
	}
}

// SealedBatch is one committed batch: the canonical record bytes, their
// leaf hashes, and the Merkle root the ledger anchors under Seq.
type SealedBatch struct {
	Seq       uint64
	UnixNanos int64
	Records   [][]byte
	Leaves    [][32]byte
	Root      [32]byte

	// traces[i] is the trace ID of Records[i], kept so that evicting the
	// batch from the proof ring never has to decode a record again.
	traces []uint64
}

// traceRef locates a record inside the sealed ring by batch and index.
type traceRef struct {
	seq   uint64
	index int
}

// Auditor accepts Records, seals them into Merkle batches, and anchors
// batch roots through its Ledger on a background goroutine — the
// serving hot path pays one Append (marshal + queue under a mutex);
// hashing happens at seal time and ledger I/O never blocks a request.
//
// The flush policy is internal/sched's: idle → seal immediately, full →
// seal at MaxBatch, timer → seal after MaxDelay behind a busy anchor,
// close → deterministic final drain. A sched.Gate guards Append against
// Close, so once Close begins no new record is admitted and every
// admitted record is sealed and anchored before Close returns.
type Auditor struct {
	opts Options
	gate sched.Gate

	mu       sync.Mutex
	pending  [][]byte // canonical bytes of the records not yet sealed
	traces   []uint64 // their trace IDs, index for index
	inFlight int      // sealed batches queued or being anchored
	timerGen uint64
	timer    *time.Timer
	closed   bool
	nextSeq  uint64
	queue    []*SealedBatch
	cond     *sync.Cond

	ring    []*SealedBatch
	byTrace map[uint64]traceRef

	anchorDone sync.WaitGroup
	m          counters
}

// New starts an Auditor and its anchor goroutine.
func New(opts Options) *Auditor {
	a := &Auditor{
		opts:    opts.withDefaults(),
		byTrace: make(map[uint64]traceRef),
		m:       newCounters(opts.Metrics),
	}
	a.cond = sync.NewCond(&a.mu)
	a.anchorDone.Add(1)
	go a.anchorLoop()
	return a
}

// Append admits one record. It returns ErrClosed once Close has begun
// and a marshal error for an unencodable record; otherwise the record
// is guaranteed to reach a sealed, anchored batch even if the process
// calls Close immediately after.
func (a *Auditor) Append(r Record) error {
	if !a.gate.Enter() {
		return ErrClosed
	}
	defer a.gate.Leave()
	raw, err := r.Marshal()
	if err != nil {
		return err
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return ErrClosed
	}
	a.m.records.Add(1)
	a.pending = append(a.pending, raw)
	a.traces = append(a.traces, r.Trace)
	switch {
	case len(a.pending) >= a.opts.MaxBatch:
		a.sealLocked(sealFull)
	case a.inFlight == 0:
		a.sealLocked(sealIdle)
	default:
		a.armTimerLocked()
	}
	a.mu.Unlock()
	return nil
}

type sealReason int

const (
	sealFull sealReason = iota
	sealIdle
	sealTimer
	sealClose
)

// armTimerLocked starts the MaxDelay clock for the current pending
// epoch if it is not already running.
func (a *Auditor) armTimerLocked() {
	if a.timer != nil {
		return
	}
	gen := a.timerGen
	a.timer = time.AfterFunc(a.opts.MaxDelay, func() {
		a.mu.Lock()
		if a.closed || gen != a.timerGen || len(a.pending) == 0 {
			a.mu.Unlock()
			return
		}
		a.sealLocked(sealTimer)
		a.mu.Unlock()
	})
}

// sealLocked takes the whole pending queue, hashes it into a
// SealedBatch, indexes it for proof service, and hands it to the anchor
// goroutine. Called with a.mu held.
func (a *Auditor) sealLocked(reason sealReason) {
	records, traces := a.pending, a.traces
	a.pending, a.traces = nil, nil
	a.timerGen++
	if a.timer != nil {
		a.timer.Stop()
		a.timer = nil
	}
	if len(records) == 0 {
		return
	}
	sb := &SealedBatch{
		Seq:       a.nextSeq,
		UnixNanos: time.Now().UnixNano(),
		Records:   records,
		Leaves:    make([][32]byte, len(records)),
		traces:    traces,
	}
	a.nextSeq++
	for i, raw := range records {
		sb.Leaves[i] = LeafHash(raw)
	}
	sb.Root = MerkleRoot(sb.Leaves)

	a.ring = append(a.ring, sb)
	for i, trace := range traces {
		a.byTrace[trace] = traceRef{seq: sb.Seq, index: i}
	}
	for len(a.ring) > a.opts.KeepBatches {
		old := a.ring[0]
		a.ring = a.ring[1:]
		for i, trace := range old.traces {
			// A trace sealed again since then points at the later record.
			if a.byTrace[trace] == (traceRef{seq: old.Seq, index: i}) {
				delete(a.byTrace, trace)
			}
		}
		a.m.evicted.Add(1)
	}

	a.m.batches.Add(1)
	switch reason {
	case sealFull:
		a.m.full.Add(1)
	case sealIdle:
		a.m.idle.Add(1)
	case sealTimer:
		a.m.timer.Add(1)
	case sealClose:
		a.m.closeSeal.Add(1)
	}
	a.inFlight++
	a.queue = append(a.queue, sb)
	a.cond.Signal()
}

// anchorLoop is the single goroutine that drains sealed batches into
// the ledger, in seal (= Seq) order. The finished anchor is the natural
// trigger for the next seal: anything pending behind it seals at once.
func (a *Auditor) anchorLoop() {
	defer a.anchorDone.Done()
	for {
		a.mu.Lock()
		for len(a.queue) == 0 && !a.closed {
			a.cond.Wait()
		}
		if len(a.queue) == 0 {
			a.mu.Unlock()
			return
		}
		sb := a.queue[0]
		a.queue = a.queue[1:]
		a.mu.Unlock()

		start := time.Now()
		err := a.opts.Ledger.Anchor(AnchoredRoot{
			Seq:       sb.Seq,
			Count:     len(sb.Leaves),
			Root:      sb.Root,
			UnixNanos: sb.UnixNanos,
		})
		a.m.anchorSeconds.Observe(time.Since(start).Seconds())
		if err != nil {
			a.m.anchorFailures.Add(1)
		} else {
			a.m.anchored.Add(1)
		}

		a.mu.Lock()
		a.inFlight--
		if a.inFlight == 0 && len(a.pending) > 0 && !a.closed {
			a.sealLocked(sealIdle)
		}
		a.mu.Unlock()
	}
}

// Close drains the gate (refusing new Appends, letting in-progress ones
// land), seals the remainder, waits for every queued batch to anchor,
// and closes the ledger. Idempotent.
func (a *Auditor) Close() error {
	a.gate.Drain()
	a.mu.Lock()
	if !a.closed {
		a.sealLocked(sealClose)
		a.closed = true
		a.cond.Broadcast()
	}
	a.mu.Unlock()
	a.anchorDone.Wait()
	return a.opts.Ledger.Close()
}

// Roots returns the ledger's anchored roots.
func (a *Auditor) Roots() []AnchoredRoot { return a.opts.Ledger.Roots() }

// Summary is the /debug/audit overview.
type Summary struct {
	Records  int64 `json:"records"`
	Batches  int64 `json:"batches"`
	Anchored int64 `json:"anchored"`
	Pending  int   `json:"pending"`
	Queued   int   `json:"queued"`
	Kept     int   `json:"kept_batches"`
	Evicted  int64 `json:"evicted_batches"`
}

// Summarize reports the auditor's current shape.
func (a *Auditor) Summarize() Summary {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Summary{
		Records:  a.m.records.Value(),
		Batches:  a.m.batches.Value(),
		Anchored: a.m.anchored.Value(),
		Pending:  len(a.pending),
		Queued:   len(a.queue),
		Kept:     len(a.ring),
		Evicted:  a.m.evicted.Value(),
	}
}

// ProofByTrace builds the inclusion proof for the most recent sealed
// record carrying the given trace ID. The second return is false when
// the trace is unknown, still pending (unsealed), or evicted from the
// proof ring.
func (a *Auditor) ProofByTrace(trace uint64) (*InclusionProof, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ref, ok := a.byTrace[trace]
	if !ok || len(a.ring) == 0 {
		a.m.proofsMissed.Add(1)
		return nil, false
	}
	first := a.ring[0].Seq
	if ref.seq < first || ref.seq >= first+uint64(len(a.ring)) {
		a.m.proofsMissed.Add(1)
		return nil, false
	}
	sb := a.ring[ref.seq-first]
	if sb.Seq != ref.seq || ref.index >= len(sb.Records) {
		a.m.proofsMissed.Add(1)
		return nil, false
	}
	p := newInclusionProof(sb, ref.index)
	a.m.proofsServed.Add(1)
	return p, true
}

// Flush seals whatever is pending without closing — test and shutdown
// hook for "make proofs available now".
func (a *Auditor) Flush() {
	a.mu.Lock()
	if !a.closed {
		a.sealLocked(sealTimer)
	}
	a.mu.Unlock()
}

// String identifies the auditor in option dumps.
func (a *Auditor) String() string {
	return fmt.Sprintf("audit.Auditor{maxBatch:%d maxDelay:%s}", a.opts.MaxBatch, a.opts.MaxDelay)
}
