package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"shredder/internal/race"
)

// TestParallelChunksCoversRangeOnce: whatever the number of seats against
// GOMAXPROCS, every index of [0,n) is visited exactly once, in chunks that
// are contiguous, non-empty and at most GOMAXPROCS many.
func TestParallelChunksCoversRangeOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 3, 7, 1024} {
			visits := make([]atomic.Int32, n)
			var calls atomic.Int32
			ParallelChunks(n, func(lo, hi int) {
				calls.Add(1)
				if lo >= hi || lo < 0 || hi > n {
					t.Errorf("procs %d n %d: chunk [%d,%d)", procs, n, lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					visits[i].Add(1)
				}
			})
			for i := range visits {
				if v := visits[i].Load(); v != 1 {
					t.Fatalf("procs %d n %d: index %d visited %d times", procs, n, i, v)
				}
			}
			if c := int(calls.Load()); c > procs || (n > 0 && c == 0) {
				t.Fatalf("procs %d n %d: %d chunks", procs, n, c)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestParallelChunksNestedAndConcurrent: many goroutines fan out at once,
// and the body of each fan-out fans out again through a parallel matmul.
// Calls that find no seat free run their chunks themselves, so this ends — a
// team that made callers wait for a seat would deadlock here — and every
// product equals the serial kernel's bit for bit.
func TestParallelChunksNestedAndConcurrent(t *testing.T) {
	prev := runtime.GOMAXPROCS(4) // more chunks than this host may have CPUs
	defer runtime.GOMAXPROCS(prev)
	const m, k, n = 64, 20, 300 // m·n is above parallelThreshold
	rng := NewRNG(31)
	a := rng.FillNormal(New(m, k), 0, 1)
	b := rng.FillNormal(New(n, k), 0, 1)
	want := make([]float64, m*n)
	matmulT2BlockedRows(want, a.Data(), b.Data(), k, n, 0, m)

	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs := make([][]float64, 3)
			ParallelFor(len(outs), func(i int) {
				outs[i] = make([]float64, m*n)
				matmulT2BlockedKernel(outs[i], a.Data(), b.Data(), m, k, n)
			})
			for i, out := range outs {
				for p, v := range out {
					if v != want[p] {
						t.Errorf("product %d element %d: %v, serial kernel %v", i, p, v, want[p])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestParallelChunksPanicReachesCaller: a panic in a chunk — whichever
// goroutine ran it — is re-raised on the goroutine that called
// ParallelChunks, where the servers' recover turns it into an error, and the
// seats are all back for the next call.
func TestParallelChunksPanicReachesCaller(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, bad := range []int{0, 3} { // the first chunk, and the last one
		got := func() (r any) {
			defer func() { r = recover() }()
			ParallelChunks(4, func(lo, hi int) {
				if lo == bad {
					panic(fmt.Sprintf("chunk %d", lo))
				}
			})
			return nil
		}()
		if got != fmt.Sprintf("chunk %d", bad) {
			t.Fatalf("a panic in chunk %d reached the caller as %v", bad, got)
		}
		if out := seatsOut.Load(); out != 0 {
			t.Fatalf("%d seats still taken after the panic was re-raised", out)
		}
		var sum atomic.Int64
		ParallelFor(100, func(i int) { sum.Add(int64(i)) })
		if sum.Load() != 4950 {
			t.Fatalf("the call after a panic summed to %d", sum.Load())
		}
	}
}

// TestParallelChunksWarmAllocations: a fan-out costs its caller's closure
// and nothing else — no WaitGroup, no per-chunk closure, no goroutine
// descriptor (the runtime recycles those).
func TestParallelChunksWarmAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	var cells [64]atomic.Int64
	fan := func() {
		ParallelChunks(len(cells), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				cells[i].Add(1)
			}
		})
	}
	fan()
	if n := testing.AllocsPerRun(200, fan); n > 1 {
		t.Fatalf("a warm ParallelChunks call allocates %v times, want at most its closure", n)
	}
}
