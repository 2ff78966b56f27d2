package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The team behind ParallelChunks is a fixed number of seats — one per CPU —
// not a set of parked goroutines: a call puts a helper goroutine on every
// seat it can get, one per chunk, and a helper gives its seat back when it
// has run out of chunks. The number of seats never changes, so the number of
// goroutines the package runs is bounded by the machine, not by the number of
// calls in flight times GOMAXPROCS.
//
// The contract with callers is no blocking hand-off: a seat is taken with one
// atomic add or not at all. A call that got a seat for every chunk waits for
// its helpers, exactly the schedule one goroutine per chunk gave; a call that
// did not — a nested call, or one of many concurrent ones — works through the
// chunks itself beside whatever helpers it has, so nothing ever waits for a
// seat and nested or concurrent calls cannot deadlock. Whoever holds the job
// claims the next chunk from a shared counter.
//
// Helpers are started, not woken. A team of goroutines parked in a channel
// receive was built first and measured: a fan-out whose chunks allocate (the
// dataset generators: 5 KB of RNG state per sample) ran 15 % slower with the
// garbage collector on and no slower with it off, which put the benchmark's
// cold start outside its bound, while a fresh goroutine per seat — the
// runtime recycles their descriptors, and the job's prebuilt closure makes
// `go` allocate nothing — matched goroutine-per-chunk in every measurement.
var (
	seats    = int32(runtime.NumCPU())
	seatsOut atomic.Int32
)

// job is one ParallelChunks call: the chunks of [0,n), the counter its
// participants claim them from, and the first panic any of them met.
type job struct {
	fn       func(lo, hi int)
	n, chunk int
	chunks   int64
	next     atomic.Int64        // the next unclaimed chunk
	helpers  sync.WaitGroup      // helpers still holding the job
	failure  atomic.Pointer[any] // the first panic of any participant
	help     func()              // a helper's whole life; built once per job, so starting one allocates nothing
}

var jobs = sync.Pool{New: func() any {
	j := new(job)
	j.help = func() {
		j.run()
		seatsOut.Add(-1)
		j.helpers.Done()
	}
	return j
}}

// run claims and runs chunks until none is left. A panic in fn is kept for
// the caller of ParallelChunks to re-raise — on a helper it must not kill the
// process, on the caller it must not skip the wait for the helpers — and
// ends the job: no further chunk is claimed.
func (j *job) run() {
	defer func() {
		if r := recover(); r != nil {
			first := r // a copy: taking r's address would allocate on every return
			j.failure.CompareAndSwap(nil, &first)
			j.next.Store(j.chunks)
		}
	}()
	for {
		c := j.next.Add(1) - 1
		if c >= j.chunks {
			return
		}
		lo := int(c) * j.chunk
		j.fn(lo, min(lo+j.chunk, j.n))
	}
}
