package core

import (
	"sync"

	"shredder/internal/tensor"
)

// Edge is the device's side of one query, paper §2.5: a = L(x), a draw of
// noise for this query, a′ = a⊙w + n. It exists once — the facade's Classify,
// the edge client and the fleet pool each hold an Edge and call Step — so
// whoever serves a query draws, measures, applies and attributes its noise
// the same way. Step is safe for concurrent use; Source and Monitor are set
// before traffic, not during it.
type Edge struct {
	// Split is the network whose local part runs here.
	Split *Split
	// Source is the deployed noise; nil sends raw activations (the paper's
	// "original execution").
	Source NoiseSource
	// Monitor, when non-nil, sees every clean activation beside its draw.
	Monitor *PrivacyMonitor

	mu      sync.Mutex // guards rng and scratch: a draw is valid until the next
	rng     *tensor.RNG
	scratch DrawScratch
}

// Attribution says which noise one request carried: what the audit ledger
// records of it, and what rides the wire as the request's audit note.
type Attribution struct {
	// Mode is the source's mode; "" when no noise was applied.
	Mode string
	// Member is the drawn member for a batch of one (-1: a fresh fitted
	// sample) and -2 for a larger batch, which mixes draws so that no single
	// member describes it — audit.Record's convention.
	Member int32
	// InVivo is the realized 1/SNR of the sample the monitor measured last,
	// meaningful only when Sampled.
	InVivo  float64
	Sampled bool
}

// NewEdge returns the edge of split serving src, its draws seeded by seed.
func NewEdge(split *Split, src NoiseSource, seed int64) *Edge {
	return &Edge{Split: split, Source: src, rng: tensor.NewRNG(seed)}
}

// Step runs L over the batch x into dst (under LocalInto's rule: a nil or
// wrong-shaped dst is replaced) and perturbs every sample with a draw of its
// own. The local pass is reentrant and runs outside the lock; the draws are
// serialized, each consumed before the next, and the monitor sees the clean
// activation — realized SNR is defined against the signal the noise is about
// to cover. Without a source the activation is returned raw and no lock is
// taken.
func (e *Edge) Step(dst, x *tensor.Tensor) (*tensor.Tensor, Attribution) {
	a := e.Split.LocalInto(dst, x)
	if e.Source == nil {
		return a, Attribution{}
	}
	at := Attribution{Mode: e.Source.Mode(), Member: -2}
	n := a.Dim(0)
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := 0; i < n; i++ {
		ai := a // a batch of one is its own sample: no view is built
		if n > 1 {
			ai = a.Slice(i)
		}
		d := e.Source.DrawInto(&e.scratch, e.rng)
		if inv, sampled := e.Monitor.Observe(d, ai); sampled {
			at.InVivo, at.Sampled = inv, true
		}
		if n == 1 {
			at.Member = int32(d.Member)
		}
		d.ApplyInPlace(ai)
	}
	return a, at
}
