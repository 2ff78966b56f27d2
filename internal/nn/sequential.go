package nn

import (
	"fmt"
	"sync/atomic"
	"time"

	"shredder/internal/tensor"
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
// Every subsequent ForwardRangeT/BackwardRangeT pass and every compiled
// plan's Infer and training pass reports per-layer wall time and scratch
// bytes to it. Attaching is safe while other goroutines are mid-pass: they
// see the old value until their next range call.
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

// ForwardT runs the full network on a batch, recording backward state on
// tape. With a nil tape nothing is recorded and any number of goroutines may
// run it concurrently over one shared network: that form is the oracle the
// compiled inference plans (compile.go) are tested against, bit for bit.
// Serving code does not call it — every inference runs a plan.
func (s *Sequential) ForwardT(tape *Tape, x *tensor.Tensor, train bool) *tensor.Tensor {
	return s.ForwardRangeT(tape, x, 0, len(s.layers), train)
}

// ForwardRangeT runs layers [from, to) on a batch, recording backward state
// on tape. It is how split execution runs the local part L (layers
// [0,cut)) and remote part R (layers [cut, len)) — each in-flight pass
// carries its own tape, so one shared network serves many concurrent
// forward (and forward/backward) passes.
func (s *Sequential) ForwardRangeT(tape *Tape, x *tensor.Tensor, from, to int, train bool) *tensor.Tensor {
	if from < 0 || to > len(s.layers) || from > to {
		panic(fmt.Sprintf("nn: ForwardRangeT [%d,%d) out of bounds for %d layers", from, to, len(s.layers)))
	}
	if p := s.activeProfiler(); p != nil {
		for _, l := range s.layers[from:to] {
			t0 := time.Now()
			x = l.ForwardT(tape, x, train)
			p.ObserveLayer(l.Name(), false, time.Since(t0), int64(x.Len())*8)
		}
		return x
	}
	for _, l := range s.layers[from:to] {
		x = l.ForwardT(tape, x, train)
	}
	return x
}

// BackwardT propagates the output gradient through the whole network in
// reverse, consuming the tape, and returns the input gradient.
func (s *Sequential) BackwardT(tape *Tape, grad *tensor.Tensor) *tensor.Tensor {
	return s.BackwardRangeT(tape, grad, 0, len(s.layers))
}

// BackwardRangeT propagates the gradient through layers [from, to) in
// reverse, consuming the matching ForwardRangeT's tape entries, and returns
// ∂loss/∂(input of layer from). Shredder's noise training backpropagates
// over the remote part only: the returned gradient with respect to R's
// input *is* ∂loss/∂n, since a' = a + n.
func (s *Sequential) BackwardRangeT(tape *Tape, grad *tensor.Tensor, from, to int) *tensor.Tensor {
	if from < 0 || to > len(s.layers) || from > to {
		panic(fmt.Sprintf("nn: BackwardRangeT [%d,%d) out of bounds for %d layers", from, to, len(s.layers)))
	}
	if p := s.activeProfiler(); p != nil {
		for i := to - 1; i >= from; i-- {
			t0 := time.Now()
			grad = s.layers[i].BackwardT(tape, grad)
			p.ObserveLayer(s.layers[i].Name(), true, time.Since(t0), int64(grad.Len())*8)
		}
		return grad
	}
	for i := to - 1; i >= from; i-- {
		grad = s.layers[i].BackwardT(tape, grad)
	}
	return grad
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
