package audit

// The proof ring's slots keep their buffers (sealLocked): what a warm Append
// allocates, and that a buffer handed to the next batch is never still read
// as the last one's. The second half is what `go test -race` is for.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shredder/internal/race"
	"shredder/internal/sched"
)

// heldLedger anchors nothing, allocates nothing and, while held is non-nil,
// waits there first: a test decides which appends find the anchor goroutine
// busy.
type heldLedger struct {
	held atomic.Pointer[chan struct{}]
}

func (l *heldLedger) Anchor(AnchoredRoot) error {
	if gate := l.held.Load(); gate != nil {
		<-*gate
	}
	return nil
}
func (*heldLedger) Roots() []AnchoredRoot { return nil }
func (*heldLedger) Close() error          { return nil }

func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestWarmAppendAllocatesNothing: once the proof ring has wrapped and its
// slots have held a batch of each size, an Append builds nothing — not when it
// seals at once on an idle auditor, and not when it fills a batch behind a
// busy anchor and seals it at MaxBatch. The one thing a pending epoch does
// build is the MaxDelay timer its first record arms; that is per epoch, not
// per record, and is left out of the count here.
func TestWarmAppendAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const keep, maxBatch = 4, 3
	ledger := new(heldLedger)
	a := New(Options{MaxBatch: maxBatch, KeepBatches: keep, MaxDelay: time.Hour, Ledger: ledger})
	defer a.Close()
	next := 0
	add := func() {
		if err := a.Append(testRecord(next)); err != nil {
			t.Fatal(err)
		}
		next++
	}
	// settle waits until nothing sealed is left to anchor: the next Append
	// finds the auditor idle.
	settle := func() {
		for {
			a.mu.Lock()
			busy := a.flusher.InFlight()
			a.mu.Unlock()
			if busy == 0 {
				return
			}
			runtime.Gosched()
		}
	}
	// One cycle: a record sealed alone with the anchor held, a second that
	// arms the timer behind it, then the rest of a full batch.
	full := func() (warm uint64) {
		gate := make(chan struct{})
		ledger.held.Store(&gate)
		add()
		add()
		warm = mallocs(func() {
			for i := 2; i <= maxBatch; i++ {
				add()
			}
		})
		ledger.held.Store(nil)
		close(gate)
		settle()
		return warm
	}
	idle := func() {
		add()
		settle()
	}
	// Every slot takes a full batch and a lone record before anything is
	// counted: keep+1 cycles of one each walk the two over all the slots.
	for i := 0; i < 2*(keep+1); i++ {
		full()
		idle()
	}
	if s := a.Summarize(); s.Kept != keep || s.Evicted == 0 {
		t.Fatalf("the ring has not wrapped: %+v", s)
	}
	if n := testing.AllocsPerRun(100, idle); n != 0 {
		t.Errorf("a warm Append that seals on an idle auditor allocates %v times", n)
	}
	for i := 0; i < keep+1; i++ {
		if n := full(); n != 0 {
			t.Errorf("cycle %d: the appends that fill and seal a batch behind a busy anchor allocate %d times", i, n)
		}
		idle()
	}
	st := a.Summarize()
	if st.Records != int64(next) || st.Batches == 0 {
		t.Fatalf("records went missing: %+v after %d appends", st, next)
	}
}

// reuseRecord is a record whose every field follows from its trace, so a
// proof can be held against the trace it was asked for.
func reuseRecord(trace uint64) Record {
	r := testRecord(int(trace % 1000))
	r.Trace, r.UnixNanos, r.InVivo = trace, int64(trace), float64(trace)/7
	if trace%2 == 0 {
		r.Mode = "stored-with-a-longer-mode-name" // records of two lengths share the arenas
	}
	return r
}

// TestProofReuseUnderConcurrentAppends wraps a four-slot ring dozens of times
// under concurrent appenders while readers ask for proofs of recent traces:
// every proof handed out verifies, decodes to the record of the trace asked
// for — never to bytes a later batch wrote over it — and, once everything is
// anchored, matches an anchored root; a trace whose batch has left the ring is
// a miss.
func TestProofReuseUnderConcurrentAppends(t *testing.T) {
	const writers, perWriter, keep = 4, 150, 4
	mem := NewMemLedger()
	a := New(Options{MaxBatch: 3, KeepBatches: keep, MaxDelay: 200 * time.Microsecond, Ledger: mem})
	var appended [writers]atomic.Int64 // records each writer has appended so far
	trace := func(w, i int) uint64 { return uint64(w+1)<<32 | uint64(i+1) }

	var writing, reading sync.WaitGroup
	stop := make(chan struct{})
	var mu sync.Mutex
	var kept []*InclusionProof
	var hits atomic.Int64
	for r := 0; r < 3; r++ {
		reading.Add(1)
		go func(r int) {
			defer reading.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				w := (r + n) % writers
				i := int(appended[w].Load()) - 1 - n%5
				if i < 0 {
					continue
				}
				want := trace(w, i)
				p, ok := a.ProofByTrace(want)
				if !ok {
					continue // pending, or already evicted
				}
				rec, err := p.Verify()
				if err != nil {
					t.Errorf("trace %x: %v", want, err)
					return
				}
				if rec != reuseRecord(want) {
					t.Errorf("trace %x: the proof carries another record: %+v", want, rec)
					return
				}
				if hits.Add(1)%16 == 0 {
					mu.Lock()
					kept = append(kept, p)
					mu.Unlock()
				}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			// At least perWriter records each, and on until the readers, however
			// the scheduler treats them, have had their share of proofs.
			for i := 0; i < perWriter || (hits.Load() < 200 && i < 100*perWriter); i++ {
				if err := a.Append(reuseRecord(trace(w, i))); err != nil {
					t.Error(err)
					return
				}
				appended[w].Store(int64(i + 1))
			}
		}(w)
	}
	writing.Wait()
	a.Flush()
	close(stop)
	reading.Wait()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	roots := mem.Roots()
	st := a.Summarize()
	if st.Evicted < 10*keep {
		t.Fatalf("the ring wrapped %d batches, want more than %d: %+v", st.Evicted, 10*keep, st)
	}
	if int64(len(roots)) != st.Batches {
		t.Fatalf("%d roots anchored for %d batches", len(roots), st.Batches)
	}
	if hits.Load() < 200 {
		t.Fatalf("the readers got %d proofs", hits.Load())
	}
	for _, p := range kept {
		if _, err := p.VerifyAgainst(roots); err != nil {
			t.Errorf("a proof served mid-run does not match an anchored root: %v", err)
		}
	}
	for w := 0; w < writers; w++ {
		if p, ok := a.ProofByTrace(trace(w, 0)); ok {
			t.Errorf("writer %d's first trace is still served, from batch %d of %d", w, p.Seq, st.Batches)
		}
	}
	// What is still in the ring is provable, and is what was appended.
	served := 0
	for w := 0; w < writers; w++ {
		for i := 0; i < int(appended[w].Load()); i++ {
			p, ok := a.ProofByTrace(trace(w, i))
			if !ok {
				continue
			}
			served++
			if rec, err := p.VerifyAgainst(roots); err != nil || rec != reuseRecord(trace(w, i)) {
				t.Errorf("trace %x after close: %+v, %v", trace(w, i), rec, err)
			}
		}
	}
	if served == 0 || served > keep*3 {
		t.Fatalf("%d traces served from a ring of %d batches of at most 3", served, keep)
	}
}

// TestRingReuseSlowLedgerAnchorsEveryRoot: a ledger slower than the appends
// lets the ring wrap past batches whose roots are still queued. What is
// anchored is a copy taken at seal time, not a view of the slot: every root
// arrives, in Seq order, and is the root that was sealed.
func TestRingReuseSlowLedgerAnchorsEveryRoot(t *testing.T) {
	const n, keep = 24, 2
	mem := NewMemLedger()
	// MaxBatch 1: every record seals at once, alone, whatever the anchor is
	// doing — so batch i is record i and its root that record's leaf hash.
	a := New(Options{MaxBatch: 1, KeepBatches: keep, Ledger: WithLatency(mem, time.Millisecond)})
	for i := 0; i < n; i++ {
		if err := a.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s := a.Summarize(); s.Queued < keep {
		t.Logf("the ledger kept up (queued %d): the ring did not wrap past unanchored roots this time", s.Queued)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	roots := mem.Roots()
	if len(roots) != n {
		t.Fatalf("%d roots anchored, want %d", len(roots), n)
	}
	for i, r := range roots {
		raw, err := testRecord(i).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if r.Seq != uint64(i) || r.Count != 1 || r.Root != LeafHash(raw) {
			t.Fatalf("root %d anchored as seq %d, %d records, %x; want the leaf hash of record %d", i, r.Seq, r.Count, r.Root[:4], i)
		}
	}
	for i := n - keep; i < n; i++ {
		p, ok := a.ProofByTrace(testRecord(i).Trace)
		if !ok {
			t.Fatalf("record %d, in the last %d batches, is not served", i, keep)
		}
		if _, err := p.VerifyAgainst(roots); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
}

// TestWarmQueuedAppendAllocatesNothing: on a warm auditor, an Append queued
// behind a busy anchor — which arms the MaxDelay timer — and the seal that
// sends it out once the anchor lands build nothing: the timer is the
// auditor's, Reset for each arm.
func TestWarmQueuedAppendAllocatesNothing(t *testing.T) {
	const keep = 4
	ledger := new(heldLedger)
	a := New(Options{MaxBatch: 64, KeepBatches: keep, MaxDelay: time.Hour, Ledger: ledger})
	defer a.Close()
	next := 0
	add := func() {
		if err := a.Append(testRecord(next)); err != nil {
			t.Fatal(err)
		}
		next++
	}
	settle := func() {
		for {
			a.mu.Lock()
			busy := a.flusher.InFlight()
			a.mu.Unlock()
			if busy == 0 {
				return
			}
			runtime.Gosched()
		}
	}
	// One cycle: a record sealed alone with the anchor held, then — counted —
	// a second queued behind it, the anchor let go, and the second sealed and
	// anchored.
	cycle := func() uint64 {
		gate := make(chan struct{})
		ledger.held.Store(&gate)
		add()
		return mallocs(func() {
			add()
			ledger.held.Store(nil)
			close(gate)
			settle()
		})
	}
	for i := 0; i < 2*(keep+1); i++ {
		cycle()
	}
	var warm uint64
	for i := 0; i < 2*(keep+1); i++ {
		warm += cycle()
	}
	if s := a.Summarize(); s.Records != int64(next) || s.Batches != int64(next) || s.Evicted == 0 {
		t.Fatalf("every record should have sealed alone in a wrapped ring: %+v after %d appends", s, next)
	}
	if a.m.seals[sched.Timer].Value() != 0 {
		t.Fatal("a queued record went out on the timer, not when the anchor landed")
	}
	if warm != 0 && !race.Enabled {
		t.Fatalf("%d warm cycles of an Append queued behind a busy anchor allocate %d times", 2*(keep+1), warm)
	}
}
