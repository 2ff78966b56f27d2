package sched

// Unit suite for the micro-batching scheduler: flush policy (idle / full /
// timer / close), per-item demultiplexing under randomized concurrent load
// (run with -race), context cancellation before and during a flight,
// error and panic propagation, and a goroutine-leak check around Close.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shredder/internal/obs"
	"shredder/internal/race"
)

// echoRun returns one result per request, tagging each so tests can verify
// every submitter got exactly its own answer back.
func echoRun(reqs, out []int) error {
	for i, r := range reqs {
		out[i] = r * 10
	}
	return nil
}

func TestIdleBatcherFlushesImmediately(t *testing.T) {
	// MaxDelay is huge: if the idle path did not bypass it, this test
	// would take a minute.
	b := New(echoRun, Options{MaxBatch: 64, MaxDelay: time.Minute})
	defer b.Close()
	start := time.Now()
	got, err := b.Submit(context.Background(), 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 70 {
		t.Fatalf("got %d, want 70", got)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("idle submission waited %v instead of flushing immediately", elapsed)
	}
	s := b.Stats()
	if s.FlushIdle != 1 || s.Batches != 1 || s.Submitted != 1 {
		t.Fatalf("unexpected stats: %+v", s)
	}
}

// blockingBatcher returns a batcher whose first batch blocks until release
// is closed, so tests can deterministically pile submissions up behind an
// in-flight batch.
func blockingBatcher(opts Options) (b *Batcher[int, int], release chan struct{}, started chan struct{}) {
	release = make(chan struct{})
	started = make(chan struct{}, 64)
	run := func(reqs, out []int) error {
		started <- struct{}{}
		<-release
		return echoRun(reqs, out)
	}
	return New(run, opts), release, started
}

func TestMaxBatchFlushesFullBatchBehindFlight(t *testing.T) {
	b, release, started := blockingBatcher(Options{MaxBatch: 4, MaxDelay: time.Minute})
	defer b.Close()

	results := make(chan int, 8)
	errs := make(chan error, 8)
	submit := func(v int) {
		go func() {
			got, err := b.Submit(context.Background(), v, 1)
			results <- got
			errs <- err
		}()
	}
	submit(1) // idle → immediate flight, blocks in run
	<-started
	// These four accumulate behind the flight; the fourth reaches
	// MaxBatch and must flush concurrently even though the first flight
	// still holds the release channel.
	for v := 2; v <= 5; v++ {
		submit(v)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("full batch never dispatched while a flight was outstanding")
	}
	close(release)
	seen := map[int]bool{}
	for i := 0; i < 5; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		seen[<-results] = true
	}
	for v := 1; v <= 5; v++ {
		if !seen[v*10] {
			t.Fatalf("missing result for %d: %v", v, seen)
		}
	}
	s := b.Stats()
	if s.FlushFull != 1 {
		t.Fatalf("expected exactly one full flush, stats: %+v", s)
	}
	if s.MeanOccupancy <= 1 {
		t.Fatalf("coalescing never happened: %+v", s)
	}
}

func TestMaxDelayBoundsQueueingBehindSlowFlight(t *testing.T) {
	b, release, started := blockingBatcher(Options{MaxBatch: 64, MaxDelay: 20 * time.Millisecond})
	defer b.Close()

	go b.Submit(context.Background(), 1, 1) // occupies the flight
	<-started
	done := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), 2, 1)
		done <- err
	}()
	// The queued submission must go out on the MaxDelay timer, not wait
	// for the (still blocked) first flight.
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("MaxDelay timer never flushed the queued submission")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if s := b.Stats(); s.FlushTimer != 1 {
		t.Fatalf("expected a timer flush, stats: %+v", s)
	}
}

func TestOversizedSubmissionRunsAlone(t *testing.T) {
	var sizes []int
	var mu sync.Mutex
	run := func(reqs, out []int) error {
		mu.Lock()
		sizes = append(sizes, len(reqs))
		mu.Unlock()
		return echoRun(reqs, out)
	}
	b := New(run, Options{MaxBatch: 4, MaxDelay: time.Minute})
	defer b.Close()
	if _, err := b.Submit(context.Background(), 1, 100); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sizes) != 1 || sizes[0] != 1 {
		t.Fatalf("oversized submission did not run alone: %v", sizes)
	}
}

func TestCancelledContextRejectedBeforeQueueing(t *testing.T) {
	b := New(echoRun, Options{})
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Submit(ctx, 1, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if s := b.Stats(); s.Submitted != 0 || s.Cancelled != 1 {
		t.Fatalf("pre-queue cancellation miscounted: %+v", s)
	}
}

func TestCancelMidQueueDoesNotPoisonBatch(t *testing.T) {
	var got atomic.Value // []int: the batch the cancelled slot would have ridden in
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	run := func(reqs, out []int) error {
		started <- struct{}{}
		if len(reqs) > 1 || reqs[0] != 1 {
			got.Store(append([]int(nil), reqs...))
		}
		<-release
		return echoRun(reqs, out)
	}
	b := New(run, Options{MaxBatch: 3, MaxDelay: time.Minute})
	defer b.Close()

	go b.Submit(context.Background(), 1, 1) // flight
	<-started

	// Queue a victim, cancel it, then fill the batch with live slots.
	ctx, cancel := context.WithCancel(context.Background())
	victim := make(chan error, 1)
	go func() {
		_, err := b.Submit(ctx, 666, 1)
		victim <- err
	}()
	// Wait until the victim is actually queued (Submitted reaches 2).
	waitFor(t, func() bool { return b.Stats().Submitted == 2 })
	cancel()
	if err := <-victim; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submitter got %v", err)
	}

	live := make(chan error, 3)
	for v := 2; v <= 4; v++ {
		go func(v int) {
			_, err := b.Submit(context.Background(), v, 1)
			live <- err
		}(v)
	}
	<-started // the full batch dispatches
	close(release)
	for i := 0; i < 3; i++ {
		if err := <-live; err != nil {
			t.Fatal(err)
		}
	}
	batch, _ := got.Load().([]int)
	for _, v := range batch {
		if v == 666 {
			t.Fatalf("abandoned slot reached the run function: %v", batch)
		}
	}
}

func TestCancelMidFlightReturnsPromptly(t *testing.T) {
	b, release, started := blockingBatcher(Options{})
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.Submit(ctx, 1, 1)
		done <- err
	}()
	<-started // submission is inside the blocked run
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled caller stayed blocked on an in-flight batch")
	}
	close(release) // the flight must still complete without anyone reading
	b.Close()
}

func TestRunErrorReachesEveryMember(t *testing.T) {
	boom := errors.New("boom")
	b := New(func(reqs, out []int) error { return boom }, Options{MaxBatch: 2, MaxDelay: time.Minute})
	defer b.Close()
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(v int) {
			_, err := b.Submit(context.Background(), v, 1)
			errs <- err
		}(i)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("member %d got %v", i, err)
		}
	}
}

func TestRunPanicBecomesErrorAndBatcherSurvives(t *testing.T) {
	calls := 0
	b := New(func(reqs, out []int) error {
		calls++
		if calls == 1 {
			panic("kaboom")
		}
		return echoRun(reqs, out)
	}, Options{})
	defer b.Close()
	if _, err := b.Submit(context.Background(), 1, 1); err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic not converted to error: %v", err)
	}
	if got, err := b.Submit(context.Background(), 2, 1); err != nil || got != 20 {
		t.Fatalf("batcher did not survive a panicking batch: %v %v", got, err)
	}
}

// TestRunIsHandedAZeroedResultList: the result list belongs to the flight and
// flights are reused, so a run that fills only part of it must still see — and
// deliver — zero values for the rest, never what an earlier batch left there.
func TestRunIsHandedAZeroedResultList(t *testing.T) {
	b := New(func(reqs, out []int) error {
		if len(out) != len(reqs) {
			t.Errorf("run handed %d result slots for %d requests", len(out), len(reqs))
		}
		for i, r := range reqs {
			if out[i] != 0 {
				t.Errorf("result slot %d arrived holding %d", i, out[i])
			}
			if r%2 == 1 {
				out[i] = r * 10
			}
		}
		return nil
	}, Options{})
	defer b.Close()
	for v := 1; v <= 6; v++ {
		want := 0
		if v%2 == 1 {
			want = v * 10
		}
		if got, err := b.Submit(context.Background(), v, 1); err != nil || got != want {
			t.Fatalf("submission %d got %d, %v; want %d", v, got, err, want)
		}
	}
}

// TestWarmSubmitAllocatesNothing: slot, result channel, flight, request list
// and result list all belong to the batcher, so a submission on an idle,
// warmed batcher — all a server behind a lockstep client ever sees — builds
// nothing, SubmitInfo included.
func TestWarmSubmitAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	b := New(echoRun, Options{})
	defer b.Close()
	var info SubmitInfo
	submit := func() {
		if got, err := b.SubmitTraced(context.Background(), 4, 1, &info); err != nil || got != 40 {
			t.Fatalf("got %d, %v", got, err)
		}
	}
	for i := 0; i < 8; i++ {
		submit()
	}
	if n := testing.AllocsPerRun(200, submit); n != 0 {
		t.Fatalf("a warm submission allocates %v times", n)
	}
}

func TestCloseFlushesPendingAndRejectsNew(t *testing.T) {
	b, release, started := blockingBatcher(Options{MaxBatch: 64, MaxDelay: time.Minute})

	go b.Submit(context.Background(), 1, 1)
	<-started
	queued := make(chan error, 1)
	queuedVal := make(chan int, 1)
	go func() {
		v, err := b.Submit(context.Background(), 2, 1)
		queuedVal <- v
		queued <- err
	}()
	waitFor(t, func() bool { return b.Stats().Submitted == 2 })

	closed := make(chan struct{})
	go func() { b.Close(); close(closed) }()
	// Close dispatches the pending slot as the final drain batch before
	// waiting on flights; only then open the gate, so the drain (not the
	// first flight's completion) is what serves the queued slot.
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never dispatched the drain batch")
	}
	close(release)
	<-closed

	// The queued slot was flushed as the final batch, not failed.
	if err := <-queued; err != nil {
		t.Fatalf("pending slot failed at Close: %v", err)
	}
	if v := <-queuedVal; v != 20 {
		t.Fatalf("pending slot got wrong result %d", v)
	}
	if s := b.Stats(); s.FlushClose != 1 {
		t.Fatalf("close drain not recorded: %+v", s)
	}
	if _, err := b.Submit(context.Background(), 3, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close returned %v, want ErrClosed", err)
	}
	b.Close() // idempotent
}

func TestCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		b := New(echoRun, Options{MaxBatch: 4, MaxDelay: time.Millisecond})
		var wg sync.WaitGroup
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func(v int) {
				defer wg.Done()
				b.Submit(context.Background(), v, 1)
			}(i)
		}
		wg.Wait()
		b.Close()
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before+2 })
}

// TestConcurrentStress hammers one batcher from many goroutines with
// random weights and per-caller cancellation, verifying every live caller
// receives exactly its own result. Run under -race this also proves the
// scheduling state is data-race free.
func TestConcurrentStress(t *testing.T) {
	b := New(echoRun, Options{MaxBatch: 8, MaxDelay: 500 * time.Microsecond})
	defer b.Close()
	const workers = 16
	const perWorker = 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				v := w*1000 + i
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if rng.Intn(10) == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(200))*time.Microsecond)
				}
				got, err := b.Submit(ctx, v, 1+rng.Intn(3))
				cancel()
				if err != nil {
					if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
						continue
					}
					errs <- fmt.Errorf("worker %d: %v", w, err)
					return
				}
				if got != v*10 {
					errs <- fmt.Errorf("worker %d got %d, want %d — cross-caller demux broken", w, got, v*10)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	s := b.Stats()
	if s.Batches == 0 || s.Weight < s.Batches {
		t.Fatalf("implausible stats after stress: %+v", s)
	}
	t.Logf("stress stats: %+v", s)
}

// waitFor yields to the goroutines cond is waiting on until it holds, for up
// to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		runtime.Gosched()
	}
	t.Fatal("condition never became true")
}

// TestCancelledSubmitterSlotIsNotRecycledEarly: a submitter that leaves on
// ctx.Done() while its batch is in flight must not put its slot back — the
// flight still sends that slot's result. Were the slot handed to the next
// submission, that submitter would wake up with the abandoned request's
// result. Slots are recycled only by the submitter that received a result.
func TestCancelledSubmitterSlotIsNotRecycledEarly(t *testing.T) {
	started := make(chan int, 4)
	release := map[int]chan struct{}{1: make(chan struct{}), 2: make(chan struct{})}
	run := func(reqs, out []int) error {
		started <- reqs[0]
		if gate := release[reqs[0]]; gate != nil {
			<-gate
		}
		return echoRun(reqs, out)
	}
	// MaxBatch 1: every submission flies at once, beside the blocked flights.
	b := New(run, Options{MaxBatch: 1, MaxDelay: time.Minute})
	defer b.Close()
	free := func() (n int) {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.freeSlots)
	}
	flying := func() (n int) {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.flusher.InFlight()
	}

	ctx, cancel := context.WithCancel(context.Background())
	left := make(chan error, 1)
	go func() {
		_, err := b.Submit(ctx, 1, 1)
		left <- err
	}()
	if v := <-started; v != 1 {
		t.Fatalf("flight of %d started first", v)
	}
	cancel()
	if err := <-left; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submitter got %v", err)
	}
	if n := free(); n != 0 {
		t.Fatalf("the submitter that left recycled its slot: %d on the free list with its flight still out", n)
	}

	type answer struct {
		v   int
		err error
	}
	second := make(chan answer, 1)
	go func() {
		v, err := b.Submit(context.Background(), 2, 1)
		second <- answer{v, err}
	}()
	if v := <-started; v != 2 {
		t.Fatalf("flight of %d started second", v)
	}
	// The abandoned flight now delivers into the slot its submitter left...
	close(release[1])
	waitFor(t, func() bool { return flying() == 1 })
	select {
	case a := <-second:
		t.Fatalf("the second submitter woke up with %+v before its own flight finished", a)
	default:
	}
	// ...and the second submission gets its own result, and recycles.
	close(release[2])
	if a := <-second; a.err != nil || a.v != 20 {
		t.Fatalf("second submitter got %+v, want 20", a)
	}
	waitFor(t, func() bool { return free() == 1 && flying() == 0 })
	if v, err := b.Submit(context.Background(), 3, 1); err != nil || v != 30 {
		t.Fatalf("the submission on the recycled slot got %d, %v", v, err)
	}
	if n := free(); n != 1 {
		t.Fatalf("%d slots on the free list after a third submission, want the one reused", n)
	}
}

// TestSubmitTracedFillsInfoAndMetrics pins the tracing/metrics contract: a
// successful SubmitTraced leaves a coherent timeline in SubmitInfo
// (enqueued ≤ dispatched ≤ started ≤ finished, batch membership recorded)
// and the shared registry sees the scheduler's registered counters.
func TestSubmitTracedFillsInfoAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	var entered, returned time.Time // the run's own clock readings
	timed := func(reqs, out []int) error {
		entered = time.Now()
		defer func() { returned = time.Now() }()
		return echoRun(reqs, out)
	}
	b := New(timed, Options{MaxBatch: 4, MaxDelay: time.Millisecond, Metrics: reg})
	defer b.Close()

	var info SubmitInfo
	got, err := b.SubmitTraced(context.Background(), 7, 2, &info)
	if err != nil || got != 70 {
		t.Fatalf("SubmitTraced: %d, %v", got, err)
	}
	if info.Enqueued.IsZero() || info.Dispatched.Before(info.Enqueued) ||
		info.Started.Before(info.Dispatched) || info.Finished.Before(info.Started) {
		t.Fatalf("incoherent timeline: %+v", info)
	}
	if info.BatchSize != 1 || info.BatchWeight != 2 || info.Reason == "" {
		t.Fatalf("batch membership wrong: %+v", info)
	}
	if info.QueueDelay() < 0 || info.Started.After(entered) || info.Finished.Before(returned) {
		t.Fatalf("derived timings wrong: queue=%v, run [%v, %v] does not cover [%v, %v]",
			info.QueueDelay(), info.Started, info.Finished, entered, returned)
	}

	snap := reg.Snapshot()
	if snap.Counters["sched.submitted"] != 1 || snap.Counters["sched.batches"] != 1 {
		t.Fatalf("registry missed the submission: %+v", snap.Counters)
	}
	if snap.Counters["sched.weight"] != 2 {
		t.Fatalf("sched.weight = %d, want 2", snap.Counters["sched.weight"])
	}

	// A nil info pointer (the Submit path) must not record anything extra.
	if got, err := b.Submit(context.Background(), 3, 1); err != nil || got != 30 {
		t.Fatalf("Submit after SubmitTraced: %d, %v", got, err)
	}
}
