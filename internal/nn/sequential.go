package nn

import (
	"fmt"
	"sync/atomic"
)

// Sequential is an ordered stack of layers forming a feed-forward network.
// It is the container the model zoo builds and that core.Split cuts into a
// local (edge) and remote (cloud) part.
type Sequential struct {
	name   string
	layers []Layer

	// prof holds the network-level profiler behind an atomic pointer so it
	// can be attached and detached while inference traffic is in flight.
	// nil means disabled; the per-range check is a single load + branch.
	prof atomic.Pointer[profilerBox]
}

// profilerBox wraps the Profiler interface value so the atomic pointer has
// a concrete type to point at.
type profilerBox struct{ p Profiler }

// NewSequential constructs a named sequential network from layers.
func NewSequential(name string, layers ...Layer) *Sequential {
	seen := map[string]bool{}
	for _, l := range layers {
		if seen[l.Name()] {
			panic(fmt.Sprintf("nn: duplicate layer name %q in %q", l.Name(), name))
		}
		seen[l.Name()] = true
	}
	return &Sequential{name: name, layers: layers}
}

// Name returns the network's name.
func (s *Sequential) Name() string { return s.name }

// Layers returns the layer stack. The slice must not be mutated.
func (s *Sequential) Layers() []Layer { return s.layers }

// Len returns the number of layers.
func (s *Sequential) Len() int { return len(s.layers) }

// Layer returns the i-th layer.
func (s *Sequential) Layer(i int) Layer { return s.layers[i] }

// Index returns the position of the named layer, or -1.
func (s *Sequential) Index(name string) int {
	for i, l := range s.layers {
		if l.Name() == name {
			return i
		}
	}
	return -1
}

// SetProfiler installs (or, with nil, removes) a network-level profiler.
// Every subsequent pass of a plan compiled from the network — an Infer, a
// training pass's forward or backward — reports per-step wall time and
// scratch bytes to it. Attaching is safe while other goroutines are
// mid-pass: they see the old value from their next pass on.
func (s *Sequential) SetProfiler(p Profiler) {
	if p == nil {
		s.prof.Store(nil)
		return
	}
	s.prof.Store(&profilerBox{p: p})
}

// activeProfiler returns the network's profiler, or nil: exactly one atomic
// load on the disabled path.
func (s *Sequential) activeProfiler() Profiler {
	if b := s.prof.Load(); b != nil {
		return b.p
	}
	return nil
}

// Params returns all trainable parameters in layer order.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ParamCount returns the total number of scalar parameters.
func (s *Sequential) ParamCount() int { return ParamCount(s.layers) }

// ZeroGrad clears every parameter gradient.
func (s *Sequential) ZeroGrad() {
	for _, p := range s.Params() {
		p.ZeroGrad()
	}
}

// OutShape threads a per-sample input shape through every layer and
// returns the final per-sample output shape.
func (s *Sequential) OutShape(in []int) []int {
	return s.OutShapeAt(in, len(s.layers))
}

// OutShapeAt returns the per-sample shape after the first n layers.
func (s *Sequential) OutShapeAt(in []int, n int) []int {
	shape := append([]int(nil), in...)
	for _, l := range s.layers[:n] {
		shape = l.OutShape(shape)
	}
	return shape
}
