package nn

import "time"

// Profiler observes per-layer execution cost. The nn package defines the
// interface but no implementation: internal/obs provides the concrete
// profiler that feeds registry histograms, and nn stays free of any
// observability dependency (the coupling is structural, like io.Writer).
//
// ObserveLayer is called once per step of a compiled plan per pass — an
// inference plan's Infer, a training pass's forward or backward — with the
// step's label (its layer names, '+'-joined where fused, and its dtype: see
// LabelMatches), the direction, the step's wall time summed over the batch,
// and the size in bytes of the scratch tensor it produced (its output for
// forward, the propagated gradient for backward). Implementations must be
// safe for concurrent use: a shared network may run many passes in flight.
type Profiler interface {
	ObserveLayer(layer string, backward bool, d time.Duration, scratchBytes int64)
}
