// Package core implements the Shredder algorithm itself: splitting a
// pre-trained network into a local (edge) part L and remote (cloud) part R,
// casting an additive noise tensor as trainable parameters, the loss
// CE − λ·Σ|nᵢ| that trades accuracy against in vivo privacy (paper Eq. 3),
// the noise trainer with the λ decay knob (paper §3.2), and the noise
// collection that is sampled at inference time (paper §2.5).
//
// The network weights are never modified: the trainer backpropagates
// through R only to obtain ∂loss/∂(R's input), which equals ∂loss/∂n since
// a' = a + n, and updates only the noise tensor. Training runs R's training
// plan (nn.TrainPlan: forward and ∂/∂input, no weight gradient), each run in
// its own pass, which makes TrainNoise reentrant: any number of noise tensors
// can train concurrently over one shared Split.
package core

import (
	"fmt"
	"sync"

	"shredder/internal/nn"
	"shredder/internal/tensor"
)

// Split is a pre-trained network cut into a local part L (layers
// [0, CutIndex]) and a remote part R (layers (CutIndex, end)).
//
// Every inference through a Split — Local, RemoteInfer, Forward — runs a
// compiled float64 plan: NewSplit compiles the whole network once and slices
// the two halves from it (nn.CompiledNet.Slice). The plans hold their own
// packed copy of the weights as NewSplit found them and equal the forward
// pass pre-training ran bit for bit, so they are not a second set of numbers:
// the frozen local part of noise training, evaluation, the attacks and the
// serving edge all see what the weights were trained to compute. Noise
// training and the inversion attack differentiate through the halves'
// training plans, compiled on first use; nn's tests pin every plan to its
// tape oracle.
type Split struct {
	// Net is the intact pre-trained network; Split never mutates weights,
	// and nothing else may once the Split exists: the plans would keep
	// serving the weights they were compiled from.
	Net *nn.Sequential
	// CutIndex is the index of the last local layer.
	CutIndex int
	// InShape is the per-sample input shape.
	InShape []int

	actShape []int // per-sample activation shape at the cut
	f64      plans // behind Local, RemoteInfer and Forward

	// planMu guards others, the plans at dtypes a server or System asked
	// for: each compiled once, whoever asks.
	planMu sync.Mutex
	others map[nn.Dtype]plans

	// trainL and trainR are the training plans of the two halves, compiled
	// by whoever trains or attacks first — never by NewSplit: a cold start
	// that only serves packs no transposed weight.
	trainL, trainR lazyTrainPlan

	// gradMu serializes the one legitimate mutation of shared network
	// state the training path performs: clearing parameter gradients left
	// behind by pre-training or legacy (non-frozen) backward passes.
	gradMu sync.Mutex
}

// lazyTrainPlan is a training plan compiled once, on first use.
type lazyTrainPlan struct {
	once sync.Once
	plan *nn.TrainPlan
	err  error
}

func (l *lazyTrainPlan) get(of *nn.CompiledNet) (*nn.TrainPlan, error) {
	l.once.Do(func() { l.plan, l.err = of.TrainPlan() })
	return l.plan, l.err
}

// RemoteTrainPlan returns the training plan of R — forward in training mode
// and ∂loss/∂a′, which is ∂loss/∂n — compiling it on first use. Every
// TrainNoise over the Split shares it.
func (s *Split) RemoteTrainPlan() (*nn.TrainPlan, error) { return s.trainR.get(s.f64.remote) }

// LocalTrainPlan is RemoteTrainPlan for L: the plan the inversion attack
// differentiates through.
func (s *Split) LocalTrainPlan() (*nn.TrainPlan, error) { return s.trainL.get(s.f64.local) }

// plans are the compiled plans of one dtype: the whole network and the two
// halves sliced from it.
type plans struct{ local, remote, full *nn.CompiledNet }

// compile builds the plans at dt: one compile, which packs every weight
// once, and two slices that share its steps (or, where the cut splits a
// fused Conv2D | ReLU, two smaller compiles).
func (s *Split) compile(dt nn.Dtype) (p plans, err error) {
	if p.full, err = nn.Compile(s.Net, dt); err != nil {
		return plans{}, err
	}
	if p.local, err = p.full.Slice(0, s.CutIndex+1); err != nil {
		return plans{}, err
	}
	if p.remote, err = p.full.Slice(s.CutIndex+1, s.Net.Len()); err != nil {
		return plans{}, err
	}
	return p, nil
}

// plansAt returns the plans at dt, compiling them on first use.
func (s *Split) plansAt(dt nn.Dtype) (plans, error) {
	if dt == nn.Float64 {
		return s.f64, nil
	}
	s.planMu.Lock()
	defer s.planMu.Unlock()
	if p, ok := s.others[dt]; ok {
		return p, nil
	}
	p, err := s.compile(dt)
	if err != nil {
		return plans{}, err
	}
	if s.others == nil {
		s.others = map[nn.Dtype]plans{}
	}
	s.others[dt] = p
	return p, nil
}

// RemotePlan returns the compiled plan of R at dt — at Float64 the one behind
// RemoteInfer. A Split compiles each dtype once; every server and System over
// it shares the plan, which is safe for concurrent use.
func (s *Split) RemotePlan(dt nn.Dtype) (*nn.CompiledNet, error) {
	p, err := s.plansAt(dt)
	return p.remote, err
}

// FullPlan is RemotePlan for the whole network — at Float64 the plan behind
// Forward.
func (s *Split) FullPlan(dt nn.Dtype) (*nn.CompiledNet, error) {
	p, err := s.plansAt(dt)
	return p.full, err
}

// NewSplit cuts net after the layer with the given name and compiles the
// inference plans of both halves and of the whole network. in is the
// per-sample input shape (e.g. [1,28,28]). A network containing a layer the
// inference compiler cannot lower is an error: there is no uncompiled
// inference path to fall back to.
func NewSplit(net *nn.Sequential, cutLayer string, in []int) (*Split, error) {
	idx := net.Index(cutLayer)
	if idx < 0 {
		return nil, fmt.Errorf("core: network %q has no layer %q", net.Name(), cutLayer)
	}
	if idx == net.Len()-1 {
		return nil, fmt.Errorf("core: cutting after the last layer %q leaves no remote part", cutLayer)
	}
	s := &Split{Net: net, CutIndex: idx, InShape: append([]int(nil), in...)}
	s.actShape = net.OutShapeAt(s.InShape, idx+1)
	var err error
	if s.f64, err = s.compile(nn.Float64); err != nil {
		return nil, fmt.Errorf("core: split %q at %q: %w", net.Name(), cutLayer, err)
	}
	return s, nil
}

// ActivationShape returns the per-sample shape of the activation at the
// cutting point — the shape of the noise tensor. It is computed once; the
// returned slice is shared and must not be modified.
func (s *Split) ActivationShape() []int { return s.actShape }

// Local computes a = L(x) for a batch through the compiled edge plan. The
// result is a fresh tensor the caller owns (the edge adds noise to it in
// place). Safe to call from many goroutines sharing one Split.
func (s *Split) Local(x *tensor.Tensor) *tensor.Tensor { return s.f64.local.Infer(x) }

// LocalInto is Local writing into dst under nn.CompiledNet.InferInto's rule
// (a nil or wrong-shaped dst is replaced): the serving edge hands back the
// activation of an earlier request, once nothing reads it any more.
func (s *Split) LocalInto(dst, x *tensor.Tensor) *tensor.Tensor { return s.f64.local.InferInto(dst, x) }

// RemoteInfer computes y = R(a') through the compiled cloud plan: no layer
// state is touched, so any number of goroutines may run remote inference
// over one shared Split concurrently.
func (s *Split) RemoteInfer(a *tensor.Tensor) *tensor.Tensor { return s.f64.remote.Infer(a) }

// Forward runs the entire intact network (no noise) — the baseline path —
// through the compiled whole-network plan. Safe for concurrent use.
func (s *Split) Forward(x *tensor.Tensor) *tensor.Tensor { return s.f64.full.Infer(x) }

// zeroParamGrads clears any parameter gradients left on the network (e.g.
// by pre-training), serialized so concurrent trainers do not race on the
// shared gradient buffers. A training plan's BackwardInto never writes
// parameter gradients, so clearing on entry keeps the invariant "weights and
// their gradients are untouched by noise training".
func (s *Split) zeroParamGrads() {
	s.gradMu.Lock()
	defer s.gradMu.Unlock()
	s.Net.ZeroGrad()
}
