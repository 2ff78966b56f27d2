package sched

// The flush rule's MaxDelay timer is kept, not re-armed: a fire left over
// from an earlier arm, and what a warm arm allocates.

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"shredder/internal/race"
)

// TestFlusherStaleFireWaitsForCurrentArm: the timer fires for one arm while
// its owner holds the lock, the owner flushes that work and arms new work,
// and only then does the timer's goroutine get the lock. That fire is stale:
// the new work goes out when it is due, not when the goroutine wakes. A
// stale fire that finds nothing armed flushes nothing, and Close ends the
// goroutine.
func TestFlusherStaleFireWaitsForCurrentArm(t *testing.T) {
	const delay = 20 * time.Millisecond
	var mu sync.Mutex
	var tasks sync.WaitGroup
	fired := make(chan time.Time, 4)
	f := Flusher{MaxWeight: 10, MaxDelay: delay, Lock: &mu, Tasks: &tasks,
		Launch: func(r Reason) bool {
			if r == Timer {
				fired <- time.Now()
			}
			return true
		}}

	mu.Lock()
	f.Queued(1) // idle: a flight leaves
	f.Queued(1) // behind it: the timer starts
	time.Sleep(3 * delay)
	f.Queued(10) // full: flushed before the fire is seen
	rearmed := time.Now()
	f.Queued(1) // armed again, due delay from now
	mu.Unlock()
	select {
	case at := <-fired:
		if early := at.Sub(rearmed); early < delay {
			t.Fatalf("the timer flushed %v after the re-arm, before the %v it was due", early, delay)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the re-armed work never went out on the timer")
	}

	mu.Lock()
	f.Queued(1)
	time.Sleep(3 * delay)
	f.Queued(10) // full: nothing is armed when the goroutine gets the lock
	mu.Unlock()
	select {
	case <-fired:
		t.Fatal("a stale fire flushed with nothing armed")
	case <-time.After(5 * delay):
	}

	mu.Lock()
	f.Close()
	mu.Unlock()
	done := make(chan struct{})
	go func() { tasks.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the timer's goroutine outlived Close")
	}
}

// TestWarmQueuedFlightAllocatesNothing: on a warm batcher, a submission
// queued behind a busy flight — which arms the MaxDelay timer — and the
// flight it rides once the busy one lands build nothing: the timer is the
// batcher's, Reset for each arm.
func TestWarmQueuedFlightAllocatesNothing(t *testing.T) {
	release := make(chan struct{})
	started := make(chan int, 2)
	run := func(reqs, out []int) error {
		started <- reqs[0]
		if reqs[0] == 1 {
			<-release
		}
		return echoRun(reqs, out)
	}
	b := New(run, Options{MaxBatch: 64, MaxDelay: time.Hour})
	defer b.Close()
	// Two submitters that live across cycles: a cycle starts no goroutine of
	// the test's own.
	in := [2]chan int{make(chan int), make(chan int)}
	results := make(chan int, 2)
	for _, c := range in {
		go func() {
			for v := range c {
				r, err := b.Submit(context.Background(), v, 1)
				if err != nil {
					r = -1
				}
				results <- r
			}
		}()
	}
	defer close(in[1])
	defer close(in[0])
	armed := func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.flusher.armed
	}
	cycle := func() {
		in[0] <- 1 // idle: flies at once and holds the batcher busy
		<-started
		in[1] <- 2 // queued behind it: arms the timer
		for !armed() {
			runtime.Gosched()
		}
		release <- struct{}{}
		<-started // the queued flight, sent when the busy one landed
		if sum := <-results + <-results; sum != 30 {
			t.Fatalf("results sum to %d, want 10 + 20", sum)
		}
	}
	// One P: a flight's goroutine reuses the one the last flight left.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 8; i++ {
		cycle()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 20; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if s := b.Stats(); s.FlushTimer != 0 || s.FlushIdle != 2*28 {
		t.Fatalf("the queued flights did not go out when the busy ones landed: %+v", s)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 && !race.Enabled {
		t.Fatalf("20 warm cycles of a flight queued behind a busy one allocate %d times", n)
	}
}
