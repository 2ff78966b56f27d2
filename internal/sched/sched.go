// Package sched provides a request-coalescing micro-batch scheduler for
// serving workloads whose unit cost amortizes over batches: many goroutines
// submit single items, the Batcher groups them, one call processes the
// whole group, and each submitter gets back exactly its own result.
//
// The flush policy is built for serving rather than throughput alone:
//
//   - When the batcher is idle (no batch in flight), a submission flushes
//     immediately — an unloaded server adds no queueing latency.
//   - While a batch is in flight, arrivals accumulate; the completed
//     flight triggers the next flush, so coalescing emerges naturally
//     from load instead of from a fixed delay.
//   - MaxBatch caps how much weight one flush may carry; reaching it
//     flushes at once, even with a flight outstanding.
//   - MaxDelay bounds how long a queued item may wait behind a slow
//     in-flight batch before it is flushed concurrently anyway.
//
// A submitter whose context is cancelled abandons its slot: it returns
// ctx.Err() immediately and the flusher drops the slot at dispatch time,
// without poisoning the rest of the batch.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"shredder/internal/obs"
)

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("sched: batcher closed")

// Options tune a Batcher. The zero value selects the defaults.
type Options struct {
	// MaxBatch caps the total weight of one batch (default 16). A single
	// submission heavier than MaxBatch still runs, alone.
	MaxBatch int
	// MaxDelay bounds how long a queued submission may wait behind an
	// in-flight batch before it is dispatched concurrently anyway
	// (default 2ms). It is a latency budget, not a mandatory delay: an
	// idle batcher always flushes immediately.
	MaxDelay time.Duration
	// Metrics, when non-nil, registers the batcher's counters in this
	// shared registry under "sched." names so they appear in a combined
	// /debug/metrics snapshot. Nil gives the batcher a private registry —
	// Stats always works, at identical (atomic) hot-path cost.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 16
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = 2 * time.Millisecond
	}
	return o
}

// Stats is an atomic snapshot of a Batcher's lifetime counters.
type Stats struct {
	Submitted int64 // submissions accepted by Submit
	Cancelled int64 // submissions abandoned by their context
	Batches   int64 // run invocations dispatched
	Weight    int64 // total weight dispatched across all batches

	// Flush reasons, one count per dispatched batch.
	FlushFull  int64 // pending weight reached MaxBatch
	FlushIdle  int64 // no batch in flight: immediate dispatch
	FlushTimer int64 // MaxDelay expired behind an in-flight batch
	FlushClose int64 // final drain by Close

	MeanOccupancy  float64       // Weight / Batches
	MeanQueueDelay time.Duration // mean time from Submit to dispatch
}

// counters holds the Batcher's hot-path statistics as registered obs
// metrics (all atomic) so Stats — now a thin compatibility wrapper — and a
// shared /debug/metrics snapshot read the same numbers without touching the
// scheduling mutex.
type counters struct {
	submitted, cancelled *obs.Counter
	batches, weight      *obs.Counter
	full, idle, timer    *obs.Counter
	closeFlush           *obs.Counter
	dispatched           *obs.Counter // live slots handed to run
	queueDelayNs         *obs.Counter
	occupancy            *obs.Gauge // weight of the most recent batch
}

func newCounters(reg *obs.Registry) counters {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return counters{
		submitted:    reg.Counter("sched.submitted"),
		cancelled:    reg.Counter("sched.cancelled"),
		batches:      reg.Counter("sched.batches"),
		weight:       reg.Counter("sched.weight"),
		full:         reg.Counter("sched.flush.full"),
		idle:         reg.Counter("sched.flush.idle"),
		timer:        reg.Counter("sched.flush.timer"),
		closeFlush:   reg.Counter("sched.flush.close"),
		dispatched:   reg.Counter("sched.dispatched"),
		queueDelayNs: reg.Counter("sched.queue_delay_ns"),
		occupancy:    reg.Gauge("sched.occupancy"),
	}
}

type result[R any] struct {
	val R
	err error
}

// slot is one pending submission: the request, its weight, the channel its
// submitter is waiting on (buffered, so an abandoned slot never blocks the
// flusher), and an optional SubmitInfo to fill with dispatch timings.
//
// Slots and their channels are reused. A flight's last touch of a slot is the
// send of its result, so the submitter that receives the result is the slot's
// only holder and puts it on the batcher's free list. A submitter that left
// on ctx.Done() does not: the flight may still read the slot and will still
// send into its channel, so that slot is never handed to a later submission —
// it is garbage once the flight is over.
type slot[Q, R any] struct {
	ctx    context.Context
	req    Q
	weight int
	enq    time.Time
	res    chan result[R]
	info   *SubmitInfo
}

// flight is one dispatched batch. Flights are reused like slots, taken and
// returned under the batcher's mutex: the queue a flight carried becomes the
// next pending queue's storage, reqs and out are the lists run is handed, and
// launch is built once so that starting the flight's goroutine allocates
// nothing.
type flight[Q, R any] struct {
	batch  []*slot[Q, R]
	reqs   []Q
	out    []R
	reason flushReason
	launch func()
}

// SubmitInfo reports how one submission travelled through the batcher: when
// it queued, when its batch was dispatched and ran, and what it rode in.
// Filled by SubmitTraced before the result is delivered, so the submitter
// may read it as soon as SubmitTraced returns nil. After a non-nil error
// (cancellation, close) the contents are unspecified and the batcher may
// still be writing them — do not read the struct in that case.
type SubmitInfo struct {
	Enqueued    time.Time // Submit entry: the request joined the pending queue
	Dispatched  time.Time // its batch left the queue (flight launched)
	Started     time.Time // the run function began for its batch
	Finished    time.Time // the run function returned
	BatchSize   int       // live submissions in the batch it rode in
	BatchWeight int       // total live weight of that batch
	Reason      string    // why the batch flushed: full / idle / timer / close
}

// QueueDelay is the time the submission waited before its batch launched.
func (i *SubmitInfo) QueueDelay() time.Duration { return i.Dispatched.Sub(i.Enqueued) }

// BatchDelay is the gap between flight launch and the run actually starting
// (slot filtering and goroutine handoff).
func (i *SubmitInfo) BatchDelay() time.Duration { return i.Started.Sub(i.Dispatched) }

// RunTime is how long the batched run took.
func (i *SubmitInfo) RunTime() time.Duration { return i.Finished.Sub(i.Started) }

// flush reasons, recorded per dispatched batch.
type flushReason int

const (
	flushFull flushReason = iota
	flushIdle
	flushTimer
	flushClose
)

// String names the reason for SubmitInfo and metrics.
func (r flushReason) String() string {
	switch r {
	case flushFull:
		return "full"
	case flushIdle:
		return "idle"
	case flushTimer:
		return "timer"
	case flushClose:
		return "close"
	default:
		return "unknown"
	}
}

// Batcher coalesces concurrent submissions into batches and runs them
// through a single user-supplied function. It is safe for any number of
// concurrent Submit callers.
type Batcher[Q, R any] struct {
	opts Options
	run  func(reqs []Q, out []R) error

	mu          sync.Mutex
	pending     []*slot[Q, R]
	pendingW    int
	inFlight    int
	timerGen    uint64 // invalidates stale MaxDelay timers
	timer       *time.Timer
	closed      bool
	freeSlots   []*slot[Q, R]
	freeFlights []*flight[Q, R]

	flights sync.WaitGroup
	stats   counters
}

// New creates a Batcher around run, which receives the coalesced requests
// in arrival order and puts the result of reqs[i] in out[i] — out is as long
// as reqs, zeroed, and belongs to the flight: run must not keep it — or
// returns an error, which every member of the batch receives. run executes on
// a dispatch goroutine and may be invoked concurrently with itself when
// MaxDelay or MaxBatch forces a flush while another batch is in flight, so
// it must be reentrant.
func New[Q, R any](run func(reqs []Q, out []R) error, opts Options) *Batcher[Q, R] {
	opts = opts.withDefaults()
	return &Batcher[Q, R]{opts: opts, run: run, stats: newCounters(opts.Metrics)}
}

// Submit queues one request of the given weight (clamped to ≥1; weight is
// the batch-capacity cost, e.g. sample count) and blocks until its result
// is ready, the context is cancelled, or the batcher closes. A cancelled
// submitter returns ctx.Err() immediately; its slot is dropped at dispatch
// time without affecting the rest of the batch.
func (b *Batcher[Q, R]) Submit(ctx context.Context, req Q, weight int) (R, error) {
	return b.SubmitTraced(ctx, req, weight, nil)
}

// SubmitTraced is Submit, additionally filling info (when non-nil) with the
// submission's dispatch timings and batch placement — the raw material for
// request spans. The info is only valid when the returned error is nil.
func (b *Batcher[Q, R]) SubmitTraced(ctx context.Context, req Q, weight int, info *SubmitInfo) (R, error) {
	var zero R
	if weight < 1 {
		weight = 1
	}
	if err := ctx.Err(); err != nil {
		b.stats.cancelled.Add(1)
		return zero, err
	}
	enq := time.Now()

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return zero, ErrClosed
	}
	var s *slot[Q, R]
	if n := len(b.freeSlots); n > 0 {
		s, b.freeSlots = b.freeSlots[n-1], b.freeSlots[:n-1]
	} else {
		s = &slot[Q, R]{res: make(chan result[R], 1)}
	}
	s.ctx, s.req, s.weight, s.enq, s.info = ctx, req, weight, enq, info
	b.stats.submitted.Add(1)
	b.pending = append(b.pending, s)
	b.pendingW += weight
	switch {
	case b.pendingW >= b.opts.MaxBatch:
		b.dispatchLocked(flushFull)
	case b.inFlight == 0:
		b.dispatchLocked(flushIdle)
	default:
		b.armTimerLocked()
	}
	b.mu.Unlock()

	select {
	case r := <-s.res:
		var none Q
		s.ctx, s.req, s.info = nil, none, nil
		b.mu.Lock()
		b.freeSlots = append(b.freeSlots, s)
		b.mu.Unlock()
		return r.val, r.err
	case <-ctx.Done():
		b.stats.cancelled.Add(1)
		return zero, ctx.Err()
	}
}

// armTimerLocked starts the MaxDelay clock for the current pending epoch
// if it is not already running.
func (b *Batcher[Q, R]) armTimerLocked() {
	if b.timer != nil {
		return
	}
	gen := b.timerGen
	b.timer = time.AfterFunc(b.opts.MaxDelay, func() {
		b.mu.Lock()
		if b.closed || gen != b.timerGen || len(b.pending) == 0 {
			b.mu.Unlock()
			return
		}
		b.dispatchLocked(flushTimer)
		b.mu.Unlock()
	})
}

// dispatchLocked takes the whole pending queue and launches a flight for
// it. Called with b.mu held; the flight itself runs on its own goroutine.
// flights.Add happens under the mutex so Close cannot miss a flight that a
// concurrent Submit is about to launch.
func (b *Batcher[Q, R]) dispatchLocked(reason flushReason) {
	b.pendingW = 0
	b.timerGen++
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	if len(b.pending) == 0 {
		return
	}
	var f *flight[Q, R]
	if n := len(b.freeFlights); n > 0 {
		f, b.freeFlights = b.freeFlights[n-1], b.freeFlights[:n-1]
	} else {
		f = new(flight[Q, R])
		f.launch = func() { b.fly(f) }
	}
	f.batch, b.pending = b.pending, f.batch[:0]
	f.reason = reason
	now := time.Now()
	for _, s := range f.batch {
		if s.info != nil {
			s.info.Enqueued = s.enq
			s.info.Dispatched = now
		}
	}
	b.inFlight++
	b.flights.Add(1)
	go f.launch()
}

// fly filters abandoned slots, runs the batch, and demultiplexes results.
func (b *Batcher[Q, R]) fly(f *flight[Q, R]) {
	defer func() {
		// Drop what the flight still points at before it waits for reuse.
		clear(f.batch)
		clear(f.reqs)
		clear(f.out)
		b.mu.Lock()
		b.inFlight--
		b.freeFlights = append(b.freeFlights, f)
		// The flight that just finished is the natural trigger for the
		// next one: anything queued behind it goes out immediately.
		if b.inFlight == 0 && len(b.pending) > 0 && !b.closed {
			b.dispatchLocked(flushIdle)
		}
		b.mu.Unlock()
		b.flights.Done()
	}()

	now := time.Now()
	live := f.batch[:0]
	weight := 0
	for _, s := range f.batch {
		if s.ctx.Err() != nil {
			continue // abandoned: its submitter already returned ctx.Err()
		}
		b.stats.queueDelayNs.Add(now.Sub(s.enq).Nanoseconds())
		b.stats.dispatched.Add(1)
		weight += s.weight
		live = append(live, s)
	}
	if len(live) == 0 {
		return
	}
	b.stats.batches.Add(1)
	b.stats.weight.Add(int64(weight))
	b.stats.occupancy.Set(float64(weight))
	switch f.reason {
	case flushFull:
		b.stats.full.Add(1)
	case flushIdle:
		b.stats.idle.Add(1)
	case flushTimer:
		b.stats.timer.Add(1)
	case flushClose:
		b.stats.closeFlush.Add(1)
	}

	f.reqs, f.out = f.reqs[:0], f.out[:0]
	var none R
	for _, s := range live {
		f.reqs = append(f.reqs, s.req)
		f.out = append(f.out, none)
	}
	started := time.Now()
	err := b.runProtected(f.reqs, f.out)
	finished := time.Now()
	for i, s := range live {
		if s.info != nil {
			// Filled before the result send, whose channel receive is the
			// happens-before edge that lets the submitter read it.
			s.info.Started = started
			s.info.Finished = finished
			s.info.BatchSize = len(live)
			s.info.BatchWeight = weight
			s.info.Reason = f.reason.String()
		}
		// The send is the flight's last touch of s: see slot.
		if err != nil {
			s.res <- result[R]{err: err}
		} else {
			s.res <- result[R]{val: f.out[i]}
		}
	}
}

// runProtected converts a panic in the user's run function into an error
// so one bad batch cannot kill the process or strand its submitters.
func (b *Batcher[Q, R]) runProtected(reqs []Q, out []R) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sched: batch run panicked: %v", r)
		}
	}()
	return b.run(reqs, out)
}

// Close drains the batcher deterministically: it stops accepting new
// submissions (Submit returns ErrClosed), flushes whatever is pending as
// one final batch so in-flight callers get real results, and waits for
// every flight to finish. No goroutine outlives Close. It is idempotent
// and safe to call concurrently.
func (b *Batcher[Q, R]) Close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		b.dispatchLocked(flushClose)
	}
	b.mu.Unlock()
	b.flights.Wait()
}

// Stats returns a consistent-enough snapshot of the lifetime counters; it
// never blocks submissions. It is a compatibility wrapper over the
// registered obs metrics (Options.Metrics, or the batcher's private
// registry), which hold the authoritative numbers.
func (b *Batcher[Q, R]) Stats() Stats {
	s := Stats{
		Submitted:  b.stats.submitted.Value(),
		Cancelled:  b.stats.cancelled.Value(),
		Batches:    b.stats.batches.Value(),
		Weight:     b.stats.weight.Value(),
		FlushFull:  b.stats.full.Value(),
		FlushIdle:  b.stats.idle.Value(),
		FlushTimer: b.stats.timer.Value(),
		FlushClose: b.stats.closeFlush.Value(),
	}
	if s.Batches > 0 {
		s.MeanOccupancy = float64(s.Weight) / float64(s.Batches)
	}
	if dispatched := b.stats.dispatched.Value(); dispatched > 0 {
		s.MeanQueueDelay = time.Duration(b.stats.queueDelayNs.Value() / dispatched)
	}
	return s
}
