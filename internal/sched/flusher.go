package sched

import (
	"sync"
	"time"
)

// Reason is why a Flusher flushed.
type Reason uint8

const (
	Full       Reason = iota // the pending weight reached MaxWeight
	Idle                     // nothing was in flight
	Timer                    // MaxDelay passed behind a flight
	Close                    // the owner's final drain
	NumReasons               // how many reasons there are
)

var reasonNames = [NumReasons]string{"full", "idle", "timer", "close"}

// String names the reason for SubmitInfo and metrics.
func (r Reason) String() string { return reasonNames[r] }

// Flusher is the coalescing rule a Batcher and an audit.Auditor share. Work
// queued on an idle owner goes out at once, and so does a queue that reaches
// MaxWeight. Work queued behind a flight waits for that flight to land, or
// for MaxDelay, whichever comes first. Close sends out what is left. The
// owner keeps the queue and launches the flights; the Flusher counts the
// flights in the air and knows whether the owner has closed.
//
// A Flusher runs under its owner's mutex, Lock: every method is called with
// it held, and the MaxDelay timer takes it before it flushes. The timer is
// made on the first arm and Reset on every later one, so a warm arm
// allocates nothing. Set the exported fields before the first call.
type Flusher struct {
	MaxWeight int
	MaxDelay  time.Duration
	Lock      sync.Locker
	// Launch sends the pending work out for reason and reports whether a
	// flight left (false when nothing was pending); the owner calls Landed
	// when it lands.
	Launch func(reason Reason) bool
	// Tasks counts the timer's goroutine, which ends after Close.
	Tasks *sync.WaitGroup

	inFlight int
	closed   bool
	timer    *time.Timer
	armed    bool      // the timer runs for the pending work
	due      time.Time // when the pending work is due, while armed
}

// Queued applies the rule to work just queued, pendingWeight being the
// weight of everything now pending.
func (f *Flusher) Queued(pendingWeight int) {
	switch {
	case pendingWeight >= f.MaxWeight:
		f.Flush(Full)
	case f.inFlight == 0:
		f.Flush(Idle)
	case !f.armed:
		f.armed = true
		f.due = time.Now().Add(f.MaxDelay)
		if f.timer != nil {
			f.timer.Reset(f.MaxDelay)
			return
		}
		f.timer = time.NewTimer(f.MaxDelay)
		f.Tasks.Add(1)
		go f.wait()
	}
}

// Landed records that a flight landed with pending queued behind it; the
// last flight to land sends that out at once.
func (f *Flusher) Landed(pending int) {
	f.inFlight--
	if f.inFlight == 0 && pending > 0 {
		f.Flush(Idle)
	}
}

// Flush sends the pending work out now, unless the owner has closed.
func (f *Flusher) Flush(reason Reason) {
	if f.closed {
		return
	}
	if f.armed {
		f.armed = false
		f.timer.Stop()
	}
	if f.Launch(reason) {
		f.inFlight++
	}
}

// Close sends out what is pending as the final flight and refuses every
// later flush. It does nothing the second time.
func (f *Flusher) Close() {
	f.Flush(Close)
	if !f.closed && f.timer != nil {
		f.timer.Reset(0) // wakes wait, which sees closed and ends
	}
	f.closed = true
}

// Closed reports whether Close has been called.
func (f *Flusher) Closed() bool { return f.closed }

// InFlight is the number of flights launched and not yet landed.
func (f *Flusher) InFlight() int { return f.inFlight }

// wait flushes on every fire of the timer that finds the pending work due.
// A fire can be stale: sent for an earlier arm whose work was flushed, and
// new work armed, before wait took the lock. The timer was Reset for the new
// work and fires again when that is due, so a fire that finds nothing armed,
// or the armed work not yet due, is dropped.
func (f *Flusher) wait() {
	defer f.Tasks.Done()
	for range f.timer.C {
		f.Lock.Lock()
		closed := f.closed
		if f.armed && !time.Now().Before(f.due) {
			f.Flush(Timer)
		}
		f.Lock.Unlock()
		if closed {
			return
		}
	}
}
