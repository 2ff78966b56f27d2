package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGateAdmitsAndDrains covers the contract: admitted work finishes
// before Drain returns, and entries after Drain are refused.
func TestGateAdmitsAndDrains(t *testing.T) {
	var g Gate
	if !g.Enter() {
		t.Fatal("zero-value gate refused entry")
	}
	if g.Active() != 1 {
		t.Fatalf("active = %d, want 1", g.Active())
	}

	var finished atomic.Bool
	drained := make(chan struct{})
	go func() {
		g.Drain()
		if !finished.Load() {
			t.Error("Drain returned before admitted work finished")
		}
		close(drained)
	}()

	// Wait for Drain to start waiting, then refuse new entries.
	for !g.Draining() {
		runtime.Gosched()
	}
	if g.Enter() {
		t.Fatal("gate admitted work while draining")
	}

	finished.Store(true)
	g.Leave()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return after last Leave")
	}
	if g.Enter() {
		t.Fatal("gate admitted work after drain completed")
	}
}

// TestGateConcurrent hammers Enter/Leave from many goroutines while Drain
// races them; the race detector plus the invariant checks cover the
// synchronization.
func TestGateConcurrent(t *testing.T) {
	var g Gate
	var admitted, left atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if g.Enter() {
					admitted.Add(1)
					left.Add(1)
					g.Leave()
				}
			}
		}()
	}
	for admitted.Load() == 0 { // Drain races entries already under way
		runtime.Gosched()
	}
	g.Drain()
	if g.Active() != 0 {
		t.Fatalf("active after Drain: %d", g.Active())
	}
	wg.Wait()
	if admitted.Load() != left.Load() {
		t.Fatalf("enter/leave imbalance: %d vs %d", admitted.Load(), left.Load())
	}
}

// TestGateDrainIdempotent checks repeated and concurrent Drain calls all
// return (and that a drained gate stays drained).
func TestGateDrainIdempotent(t *testing.T) {
	var g Gate
	done := make(chan struct{}, 3)
	for i := 0; i < 3; i++ {
		go func() {
			g.Drain()
			done <- struct{}{}
		}()
	}
	for i := 0; i < 3; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("concurrent Drain hung")
		}
	}
	g.Drain() // and once more, synchronously
}
