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
// leaf hashes, and the Merkle root the ledger anchors under Seq. It is also a
// slot of the proof ring, and the slot owns its storage: a batch sealed into
// a slot leaves its buffers there when it is evicted, and the records that
// arrive next are written into them (sealLocked). Nothing of a slot may be
// read outside the auditor's mutex; ProofByTrace copies out under it.
type SealedBatch struct {
	Seq       uint64
	UnixNanos int64
	Leaves    [][32]byte
	Root      [32]byte

	// The records' canonical bytes back to back, record i ending at ends[i],
	// and traces[i] its trace ID — kept so that evicting the batch from the
	// proof ring, or proving a record, never has to decode one again.
	records []byte
	ends    []int
	traces  []uint64
}

// record returns the canonical bytes of record i, a view of the slot's arena.
func (sb *SealedBatch) record(i int) []byte {
	start := 0
	if i > 0 {
		start = sb.ends[i-1]
	}
	return sb.records[start:sb.ends[i]]
}

// traceRef locates a record inside the sealed ring by batch and index.
type traceRef struct {
	seq   uint64
	index int
}

// rootQueue is the FIFO of sealed roots waiting for the anchor goroutine: a
// ring of values, so that what is queued is a copy taken under the auditor's
// mutex and never a view of a proof-ring slot a later batch may reuse. It
// grows to the longest backlog ever queued.
type rootQueue struct {
	buf     []AnchoredRoot
	head, n int
}

func (q *rootQueue) push(r AnchoredRoot) {
	if q.n == len(q.buf) {
		grown := make([]AnchoredRoot, max(4, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = r
	q.n++
}

func (q *rootQueue) pop() AnchoredRoot {
	r := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return r
}

// Auditor accepts Records, seals them into Merkle batches, and anchors
// batch roots through its Ledger on a background goroutine — the
// serving hot path pays one Append (encode + queue under a mutex);
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
	pending  SealedBatch // the records not yet sealed: records, ends and traces only
	inFlight int         // sealed batches queued or being anchored
	timerGen uint64
	timer    *time.Timer
	closed   bool
	nextSeq  uint64
	queue    rootQueue
	cond     *sync.Cond

	// ring holds the last KeepBatches sealed batches, batch Seq in slot
	// Seq mod KeepBatches. It grows by one slot per seal until it is that long
	// and from then on every seal evicts the slot it takes.
	ring    []SealedBatch
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
// calls Close immediately after. The record is encoded straight into the
// pending batch's buffer: a warm Append allocates nothing.
func (a *Auditor) Append(r Record) error {
	if !a.gate.Enter() {
		return ErrClosed
	}
	defer a.gate.Leave()
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return ErrClosed
	}
	p := &a.pending
	var err error
	if p.records, err = r.AppendTo(p.records); err != nil {
		return err
	}
	p.ends = append(p.ends, len(p.records))
	p.traces = append(p.traces, r.Trace)
	a.m.records.Add(1)
	switch {
	case len(p.traces) >= a.opts.MaxBatch:
		a.sealLocked(sealFull)
	case a.inFlight == 0:
		a.sealLocked(sealIdle)
	default:
		a.armTimerLocked()
	}
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
		if a.closed || gen != a.timerGen || len(a.pending.traces) == 0 {
			a.mu.Unlock()
			return
		}
		a.sealLocked(sealTimer)
		a.mu.Unlock()
	})
}

// sealLocked seals the pending records as the next batch: it takes the
// batch's slot of the proof ring — evicting the batch sealed KeepBatches
// ago, once the ring is that long — swaps the pending buffers into it, hashes
// the records into the slot's own Leaves, indexes them for proof service and
// queues a copy of the root for the anchor goroutine. The next records are
// written into the buffers the evicted batch left behind, so a slot's
// storage stays as large as the largest batch ever sealed there. Called with
// a.mu held.
func (a *Auditor) sealLocked(reason sealReason) {
	a.timerGen++
	if a.timer != nil {
		a.timer.Stop()
		a.timer = nil
	}
	p := &a.pending
	if len(p.traces) == 0 {
		return
	}
	seq := a.nextSeq
	a.nextSeq++
	i := int(seq % uint64(a.opts.KeepBatches))
	if i == len(a.ring) {
		a.ring = append(a.ring, SealedBatch{})
	} else {
		old := &a.ring[i]
		for j, trace := range old.traces {
			// A trace sealed again since then points at the later record.
			if a.byTrace[trace] == (traceRef{seq: old.Seq, index: j}) {
				delete(a.byTrace, trace)
			}
		}
		a.m.evicted.Add(1)
	}
	sb := &a.ring[i]
	sb.records, p.records = p.records, sb.records[:0]
	sb.ends, p.ends = p.ends, sb.ends[:0]
	sb.traces, p.traces = p.traces, sb.traces[:0]
	sb.Seq, sb.UnixNanos = seq, time.Now().UnixNano()
	sb.Leaves = sb.Leaves[:0]
	for j, trace := range sb.traces {
		sb.Leaves = append(sb.Leaves, LeafHash(sb.record(j)))
		a.byTrace[trace] = traceRef{seq: seq, index: j}
	}
	sb.Root = MerkleRoot(sb.Leaves)

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
	a.queue.push(AnchoredRoot{Seq: seq, Count: len(sb.Leaves), Root: sb.Root, UnixNanos: sb.UnixNanos})
	a.cond.Signal()
}

// anchorLoop is the single goroutine that drains sealed batches into
// the ledger, in seal (= Seq) order. The finished anchor is the natural
// trigger for the next seal: anything pending behind it seals at once.
func (a *Auditor) anchorLoop() {
	defer a.anchorDone.Done()
	for {
		a.mu.Lock()
		for a.queue.n == 0 && !a.closed {
			a.cond.Wait()
		}
		if a.queue.n == 0 {
			a.mu.Unlock()
			return
		}
		root := a.queue.pop()
		a.mu.Unlock()

		start := time.Now()
		err := a.opts.Ledger.Anchor(root)
		a.m.anchorSeconds.Observe(time.Since(start).Seconds())
		if err != nil {
			a.m.anchorFailures.Add(1)
		} else {
			a.m.anchored.Add(1)
		}

		a.mu.Lock()
		a.inFlight--
		if a.inFlight == 0 && len(a.pending.traces) > 0 && !a.closed {
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
		Pending:  len(a.pending.traces),
		Queued:   a.queue.n,
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
	slot := int(ref.seq % uint64(a.opts.KeepBatches))
	if !ok || slot >= len(a.ring) || a.ring[slot].Seq != ref.seq || ref.index >= len(a.ring[slot].traces) {
		a.m.proofsMissed.Add(1)
		return nil, false
	}
	sb := &a.ring[slot]
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
