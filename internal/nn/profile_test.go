package nn

// Tests for the per-layer profiling hook on Sequential: the network-level
// profiler sees every range pass in execution order (forward) and reverse
// order (backward), a tape-level profiler overrides it for that tape's
// passes, and detaching restores the unobserved path.

import (
	"sync"
	"testing"
	"time"

	"shredder/internal/tensor"
)

// recordingProfiler captures ObserveLayer calls in order.
type recordingProfiler struct {
	mu     sync.Mutex
	events []profEvent
}

type profEvent struct {
	layer    string
	backward bool
	bytes    int64
}

func (r *recordingProfiler) ObserveLayer(layer string, backward bool, d time.Duration, scratchBytes int64) {
	if d < 0 {
		panic("negative layer duration")
	}
	r.mu.Lock()
	r.events = append(r.events, profEvent{layer, backward, scratchBytes})
	r.mu.Unlock()
}

func (r *recordingProfiler) take() []profEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.events
	r.events = nil
	return out
}

// TestSequentialProfilerForwardBackward attaches a network-level profiler
// and checks a full tape pass reports every layer: forward in execution
// order with the output sizes, backward in reverse with gradient sizes.
func TestSequentialProfilerForwardBackward(t *testing.T) {
	net := NewSequential("prof", NewReLU("a"), NewReLU("b"))
	x := tensor.New(1, 1, 2, 2).Fill(1)
	rec := &recordingProfiler{}
	net.SetProfiler(rec)
	defer net.SetProfiler(nil)

	tape := NewTape()
	out := net.ForwardT(tape, x, true)
	net.BackwardT(tape, tensor.New(out.Shape()...).Fill(1))

	events := rec.take()
	want := []profEvent{
		{"a", false, 32}, {"b", false, 32}, // forward: 4 floats × 8 bytes
		{"b", true, 32}, {"a", true, 32}, // backward: reverse order
	}
	if len(events) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(events), len(want), events)
	}
	for i, e := range events {
		if e != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, e, want[i])
		}
	}
}

// TestSequentialProfilerInferAndDetach checks the nil-tape inference path
// reports through the network profiler, and SetProfiler(nil) stops the
// events without touching the network.
func TestSequentialProfilerInferAndDetach(t *testing.T) {
	net := NewSequential("prof", NewReLU("a"), NewReLU("b"))
	x := tensor.New(1, 1, 2, 2).Fill(1)
	rec := &recordingProfiler{}
	net.SetProfiler(rec)
	if out := net.ForwardT(nil, x, false); out.Len() != 4 {
		t.Fatalf("infer output %v", out.Shape())
	}
	if got := rec.take(); len(got) != 2 || got[0].layer != "a" || got[1].layer != "b" {
		t.Fatalf("infer events: %+v", got)
	}

	net.SetProfiler(nil)
	net.ForwardT(nil, x, false)
	if got := rec.take(); len(got) != 0 {
		t.Fatalf("detached profiler still observed: %+v", got)
	}
}
