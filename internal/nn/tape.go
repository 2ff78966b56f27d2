package nn

import (
	"fmt"

	"shredder/internal/tensor"
)

// Tape is an explicit per-call execution context for the autograd
// substrate. A forward pass records every intermediate buffer its backward
// pass will need on the tape (a stack: one entry per ForwardT call), and
// BackwardT consumes the entries in reverse order. Because all state lives
// on the tape rather than on the layer structs, any number of
// forward/backward passes may be in flight over one shared network — one
// tape per in-flight pass.
//
// A nil *Tape is the discard mode: ForwardT computes the output without
// recording anything (this is the inference path), and BackwardT through a
// nil tape panics.
type Tape struct {
	// FrozenParams makes BackwardT skip parameter-gradient computation
	// entirely: only ∂loss/∂input flows. Shredder never updates the network
	// weights, so its noise training and the inversion attack both run with
	// frozen parameters, saving the dW/db GEMMs and making backward passes
	// free of writes to shared layer state.
	FrozenParams bool
	// RNG, when non-nil, supplies the tape's private randomness (dropout
	// masks). Concurrent training runs give each tape its own seeded RNG so
	// their random streams are independent and reproducible. When nil,
	// layers fall back to their construction-time RNG (one generator per
	// layer: not reentrant).
	RNG *tensor.RNG

	entries []tapeEntry
}

// tapeEntry is one recorded forward step: the layer that pushed it and the
// state its backward pass needs.
type tapeEntry struct {
	layer Layer
	state any
}

// NewTape returns an empty recording tape.
func NewTape() *Tape { return &Tape{} }

// NewFrozenTape returns an empty tape in FrozenParams mode — the context
// for training through a frozen network (noise training, inversion
// attacks).
func NewFrozenTape() *Tape { return &Tape{FrozenParams: true} }

// Reset truncates the tape for reuse, keeping its configuration and
// storage. Call it between iterations when reusing one tape in a loop.
func (t *Tape) Reset() {
	if t == nil {
		return
	}
	for i := range t.entries {
		t.entries[i] = tapeEntry{} // drop references so buffers can be collected
	}
	t.entries = t.entries[:0]
}

// push records one forward step. A nil tape discards the state.
func (t *Tape) push(l Layer, state any) {
	if t == nil {
		return
	}
	t.entries = append(t.entries, tapeEntry{layer: l, state: state})
}

// pop consumes the most recent forward step, which must belong to l:
// backward passes must unwind the tape in exact reverse forward order.
func (t *Tape) pop(l Layer) any {
	if t == nil {
		panic(fmt.Sprintf("nn: %s.BackwardT through a discarded (nil) tape", l.Name()))
	}
	if len(t.entries) == 0 {
		panic(fmt.Sprintf("nn: %s.BackwardT without a matching ForwardT on this tape", l.Name()))
	}
	e := t.entries[len(t.entries)-1]
	if e.layer != l {
		panic(fmt.Sprintf("nn: %s.BackwardT out of order: tape top belongs to %s", l.Name(), e.layer.Name()))
	}
	t.entries[len(t.entries)-1] = tapeEntry{}
	t.entries = t.entries[:len(t.entries)-1]
	return e.state
}

// frozen reports whether parameter gradients should be skipped.
func (t *Tape) frozen() bool { return t != nil && t.FrozenParams }

// rng returns the tape's RNG, or fallback when the tape carries none.
func (t *Tape) rng(fallback *tensor.RNG) *tensor.RNG {
	if t != nil && t.RNG != nil {
		return t.RNG
	}
	return fallback
}
