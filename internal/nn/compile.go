package nn

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shredder/internal/tensor"
)

// This file is the compiler every pass runs through: it lowers a (range of
// a) Sequential into a flat list of dtype-parameterized steps that run
// without per-layer dispatch, without allocating, and — where layers compose
// — fused. Every inference in the repository runs such a plan (core.Split
// compiles the edge half, the cloud half and the whole net), and every
// training step runs a Float64 plan's training plan (below): noise training
// and the inversion attack for the gradient with respect to a range's input,
// pre-training for the gradient with respect to its weights. The tape-based
// autograd these replaced is kept in the package tests as the oracle they
// are pinned to (oracle_test.go).
//
// Compilation performs two transformations a layer-at-a-time pass cannot:
//
//   - Weight binding happens once. Every parameter is converted to the
//     plan's dtype at compile time and the weights of Conv2D and Linear are
//     re-laid into the output-channel panels the direct kernel reads
//     (tensor.Pack), so a plan of either dtype is a snapshot: it holds its own
//     copy of the weights as they were when it was compiled and does not see a
//     later change — recompile after training, loading or any other write.
//     Compiling costs a strided copy of every weight, which is why a network
//     is compiled once per dtype and its ranges are sliced from that plan
//     (CompiledNet.Slice).
//
//   - Conv/Linear + ReLU fusion. The activation is applied in the epilogue
//     of the producing step, so the intermediate pre-activation tensor is
//     never materialized and the extra memory pass disappears.
//
// Equality policy: a Float64 plan equals the oracle's inference forward pass
// bit for bit, on every zoo network, range and batch size (pinned by
// TestPlanEqualsOracleBitwise). The plan's convolutions and linear layers
// run the direct kernel over packed weights (tensor.Packed), scalar or
// vector, but every accumulator of its leaf belongs to a different output and
// each output is still summed over p in the reference kernel's order; bias
// and ReLU evaluate the layers' own expressions. Pre-training, noise learning
// and cached-weight reproducibility therefore see the numbers the oracle
// computes. A Float32 plan stays within ~1e-4 of float64 with classification
// decisions pinned identical.
//
// Execution: every step treats batch members independently, so a plan runs
// sample-major — one sample through all steps, then the next — against a
// workspace: two ping-pong activation buffers, the direct kernel's scratch
// (its accumulators and a convolution's zero-bordered input) and the dtype
// staging buffers, all sized for ONE sample of the plan's input shape.
// Workspaces live in a per-plan sync.Pool; a single-sample Infer takes one
// and runs inline — no step fans out inside a sample — and a batch fans out
// over tensor.ParallelChunks with one workspace per chunk. A workspace does not
// depend on the batch size, so a batch-size change costs nothing; a change
// of the per-sample input shape re-resolves the step shapes once and grows
// the buffers. The pool is emptied by the garbage collector like any
// sync.Pool — the next call re-allocates. The last step writes straight
// into the result tensor (Float32 plans widen into it), which belongs to the
// caller and never aliases workspace memory, so the edge may add noise to it
// in place. It is all a warm single-sample Infer allocates, and InferInto,
// handed the result of the call before, allocates not even that.

// CompiledNet is an executable inference plan for a contiguous layer range
// of a Sequential at a fixed dtype. It reads its own copy of the parameters,
// taken at compile time and never written afterwards, so any number of
// goroutines may call Infer concurrently — each call works in its own
// workspace.
type CompiledNet struct {
	src      *Sequential
	from, to int
	dtype    Dtype
	p64      *plan[float64] // exactly one of p64, p32 is set
	p32      *plan[float32]
}

// Compile lowers the whole network into an inference plan at the given
// dtype.
func Compile(s *Sequential, dt Dtype) (*CompiledNet, error) {
	return CompileRange(s, 0, s.Len(), dt)
}

// CompileRange lowers layers [from, to) into an inference plan at the given
// dtype — the split-execution form, on its own: a caller that also wants the
// whole network, as core.Split does, compiles that and Slices the ranges.
func CompileRange(s *Sequential, from, to int, dt Dtype) (*CompiledNet, error) {
	if from < 0 || to > s.Len() || from > to {
		return nil, fmt.Errorf("nn: CompileRange [%d,%d) out of bounds for %d layers", from, to, s.Len())
	}
	c := &CompiledNet{src: s, from: from, to: to, dtype: dt}
	var err error
	switch dt {
	case Float64:
		c.p64, err = buildPlan[float64](s, from, to, dt)
	case Float32:
		c.p32, err = buildPlan[float32](s, from, to, dt)
	default:
		err = fmt.Errorf("nn: cannot compile for dtype %v", dt)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Slice returns the plan of layers [from, to), a sub-range of c's. Where no
// fused step straddles from or to it shares c's steps — the packed weights
// are immutable — and owns only its layout cache and workspace pool, so it
// costs no copy and serves c's snapshot. A boundary inside a fused group
// (Conv2D | ReLU) has no steps to share: that range is compiled afresh from
// the network's weights as they are now.
func (c *CompiledNet) Slice(from, to int) (*CompiledNet, error) {
	if from < c.from || to > c.to || from > to {
		return nil, fmt.Errorf("nn: Slice [%d,%d) of a plan over [%d,%d)", from, to, c.from, c.to)
	}
	out := &CompiledNet{src: c.src, from: from, to: to, dtype: c.dtype}
	if c.p32 != nil {
		out.p32 = c.p32.slice(from, to)
	} else {
		out.p64 = c.p64.slice(from, to)
	}
	if out.p32 == nil && out.p64 == nil {
		return CompileRange(c.src, from, to, c.dtype)
	}
	return out, nil
}

// Dtype returns the plan's element type.
func (c *CompiledNet) Dtype() Dtype { return c.dtype }

// Labels returns the per-step profiler labels in execution order, e.g.
// "conv2+relu2[f32]" for a fused step. The slice must not be mutated.
func (c *CompiledNet) Labels() []string {
	if c.p32 != nil {
		return c.p32.labels
	}
	return c.p64.labels
}

// From returns the first compiled layer index.
func (c *CompiledNet) From() int { return c.from }

// To returns the end (exclusive) of the compiled layer range.
func (c *CompiledNet) To() int { return c.to }

// Infer runs the plan on a float64 batch [N, ...] and returns a fresh
// float64 result the caller owns — dtype conversion, when any, happens
// sample by sample at the boundaries. The input is only read. Safe for
// concurrent use.
func (c *CompiledNet) Infer(x *tensor.Tensor) *tensor.Tensor { return c.InferInto(nil, x) }

// InferInto is Infer writing its result into dst, which it returns: the
// entry for a caller that keeps the result tensor between calls — and the
// one a fused or packed kernel will be called through. A dst that is nil or
// not of the result's shape [N, ...] is replaced by a fresh tensor, which is
// all Infer is. Every element is overwritten; dst must not alias x.
func (c *CompiledNet) InferInto(dst, x *tensor.Tensor) *tensor.Tensor {
	if c.p32 != nil {
		return inferInto(c.p32, dst, x.Data(), x.Shape())
	}
	return inferInto(c.p64, dst, x.Data(), x.Shape())
}

// Infer32Into runs the plan on a float32 batch — the zero-conversion entry
// for payloads dequantized directly to float32 (quantize.DequantizeInto) —
// with InferInto's destination rule. For a Float64 plan the input is widened
// sample by sample.
func (c *CompiledNet) Infer32Into(dst *tensor.Tensor, x *tensor.Tensor32) *tensor.Tensor {
	if c.p32 != nil {
		return inferInto(c.p32, dst, x.Data(), x.Shape())
	}
	return inferInto(c.p64, dst, x.Data(), x.Shape())
}

// LabelMatches reports whether a profiler label produced by a compiled plan
// refers to the named layer. Fused steps carry labels
// like "conv2+relu2[f32]": the '+'-joined constituent layer names with a
// dtype suffix.
func LabelMatches(label, layer string) bool {
	if i := strings.LastIndexByte(label, '['); i >= 0 && strings.HasSuffix(label, "]") {
		label = label[:i]
	}
	if label == layer {
		return true
	}
	for _, part := range strings.Split(label, "+") {
		if part == layer {
			return true
		}
	}
	return false
}

// plan is a compiled layer range at element type F.
type plan[F tensor.Float] struct {
	src      *Sequential // profiler attach point
	steps    []step[F]
	spans    [][2]int // the layers [from, to) each step lowers; Dropout falls between
	labels   []string
	elemSize int64

	// lay caches the step shapes resolved for the per-sample input shape
	// last seen — in practice the only one a plan ever sees.
	lay  atomic.Pointer[layout]
	pool sync.Pool // *workspace[F]
}

// slice returns the plan of the steps lying in layers [from, to), sharing
// them, or nil when a step straddles a boundary.
func (p *plan[F]) slice(from, to int) *plan[F] {
	lo, hi := 0, len(p.steps)
	for k, sp := range p.spans {
		switch {
		case sp[1] <= from:
			lo = k + 1
		case sp[0] >= to:
			hi = min(hi, k)
		case sp[0] < from || sp[1] > to:
			return nil
		}
	}
	return &plan[F]{src: p.src, steps: p.steps[lo:hi], spans: p.spans[lo:hi], labels: p.labels[lo:hi], elemSize: p.elemSize}
}

// step is one executable unit of a plan. Both methods work on ONE sample.
// Steps are immutable once built: plans sliced from one another share them.
type step[F tensor.Float] interface {
	label() string
	// resolve returns the step's geometry for a per-sample input shape,
	// panicking like the layer it lowers when the shape does not fit.
	resolve(in []int) stepLayout
	// sample computes y from x, both flat and exactly sl.inVol/sl.outVol
	// long. It never writes x and keeps no reference to either.
	sample(sl *stepLayout, x, y []F, ws *workspace[F])
}

// stepLayout is one step's geometry for one per-sample input shape.
type stepLayout struct {
	in, out       []int // per-sample shapes
	inVol, outVol int
	view          bool             // output is the input re-shaped: nothing runs
	taps          *tensor.ConvTaps // conv steps
	scratch       int              // conv and linear steps: kernel scratch elements
}

// layout is a plan's geometry for one per-sample input shape.
type layout struct {
	in            []int
	steps         []stepLayout
	out           []int // per-sample output shape of the plan
	inVol, outVol int
	last          int // index of the last non-view step (it writes the result), -1 if none
	act           int // largest intermediate activation, elements
	scratch       int // largest kernel scratch, elements
}

// workspace is the memory one in-flight sample needs; see the file comment.
type workspace[F tensor.Float] struct {
	act     [2][]F
	scratch []F
	in, out []F // staging where the caller's dtype is not F
}

// grow returns b if it holds n elements, else a fresh buffer that does.
func grow[F tensor.Float](b []F, n int) []F {
	if len(b) >= n {
		return b
	}
	return make([]F, n)
}

// layoutFor returns the plan's geometry for a per-sample shape, resolving
// it only when the shape differs from the cached one.
func (p *plan[F]) layoutFor(sample []int) *layout {
	if l := p.lay.Load(); l != nil && tensor.ShapeEq(l.in, sample) {
		return l
	}
	l := &layout{in: append([]int(nil), sample...), steps: make([]stepLayout, len(p.steps)), last: -1}
	l.inVol = tensor.Volume(sample)
	shape := l.in
	for k, st := range p.steps {
		sl := st.resolve(shape)
		sl.in, sl.inVol, sl.outVol = shape, tensor.Volume(shape), tensor.Volume(sl.out)
		l.steps[k] = sl
		shape = sl.out
		if !sl.view {
			l.last = k
		}
		l.scratch = max(l.scratch, sl.scratch)
	}
	for k, sl := range l.steps {
		if !sl.view && k != l.last {
			l.act = max(l.act, sl.outVol)
		}
	}
	l.out, l.outVol = shape, tensor.Volume(shape)
	p.lay.Store(l)
	return l
}

// workspaceFor takes a workspace from the pool and fits its two activation
// buffers and its kernel scratch to the given element counts.
func (p *plan[F]) workspaceFor(act, scratch int) *workspace[F] {
	ws, _ := p.pool.Get().(*workspace[F])
	if ws == nil {
		ws = new(workspace[F])
	}
	ws.act[0], ws.act[1] = grow(ws.act[0], act), grow(ws.act[1], act)
	ws.scratch = grow(ws.scratch, scratch)
	return ws
}

// sample runs one sample through every step, x → dst. A non-nil durs
// accumulates each step's wall time.
func (p *plan[F]) sample(ws *workspace[F], l *layout, x, dst []F, durs []time.Duration) {
	cur, flip := x, 0
	var t0 time.Time
	for k, st := range p.steps {
		sl := &l.steps[k]
		if sl.view {
			continue
		}
		y := dst
		if k != l.last {
			y = ws.act[flip][:sl.outVol]
			flip ^= 1
		}
		if durs != nil {
			t0 = time.Now()
		}
		st.sample(sl, cur, y, ws)
		if durs != nil {
			durs[k] += time.Since(t0)
		}
		cur = y
	}
	if l.last < 0 {
		copy(dst, cur)
	}
}

// convert copies src into dst across element types.
func convert[D, S tensor.Float](dst []D, src []S) {
	for i, v := range src {
		dst[i] = D(v)
	}
}

// inferSample runs one sample from the caller's input element type to the
// float64 result, staging through the workspace only on the sides where the
// element type is not the plan's.
func inferSample[F, In tensor.Float](p *plan[F], ws *workspace[F], l *layout, x []In, dst []float64, durs []time.Duration) {
	in, inDirect := any(x).([]F)
	if !inDirect {
		ws.in = grow(ws.in, l.inVol)
		in = ws.in[:l.inVol]
		convert(in, x)
	}
	out, outDirect := any(dst).([]F)
	if !outDirect {
		ws.out = grow(ws.out, l.outVol)
		out = ws.out[:l.outVol]
	}
	p.sample(ws, l, in, out, durs)
	if !outDirect {
		convert(dst, out)
	}
}

// inferInto runs the plan over a batch x of the given [N, ...] shape into out,
// replaced by a fresh tensor when it is nil or of another shape. One sample
// runs inline on the caller's goroutine with no closure built; a batch fans
// out in chunks, one workspace each. Under a profiler the samples run in
// sequence so each step reports once per call — its time summed over the
// batch — through the network's attach point, which a training plan's passes
// report through too.
func inferInto[F, In tensor.Float](p *plan[F], out *tensor.Tensor, x []In, shape []int) *tensor.Tensor {
	if len(shape) < 2 {
		panic(fmt.Sprintf("nn: compiled plan expects a batched input [N, ...], got shape %v", shape))
	}
	n := shape[0]
	l := p.layoutFor(shape[1:])
	out = fitResult(out, n, l.out)
	od := out.Data()
	prof := p.src.activeProfiler()
	if n == 1 || prof != nil || runtime.GOMAXPROCS(0) == 1 {
		// ParallelChunks would run this inline too, but only after the
		// closure handed to it was built.
		var durs []time.Duration
		if prof != nil {
			durs = make([]time.Duration, len(p.steps))
		}
		ws := p.workspaceFor(l.act, l.scratch)
		for i := 0; i < n; i++ {
			inferSample(p, ws, l, x[i*l.inVol:(i+1)*l.inVol], od[i*l.outVol:(i+1)*l.outVol], durs)
		}
		p.pool.Put(ws)
		for k, d := range durs {
			prof.ObserveLayer(p.labels[k], false, d, int64(n*l.steps[k].outVol)*p.elemSize)
		}
		return out
	}
	tensor.ParallelChunks(n, func(lo, hi int) {
		ws := p.workspaceFor(l.act, l.scratch)
		for i := lo; i < hi; i++ {
			inferSample(p, ws, l, x[i*l.inVol:(i+1)*l.inVol], od[i*l.outVol:(i+1)*l.outVol], nil)
		}
		p.pool.Put(ws)
	})
	return out
}

// fitResult returns out if it is a tensor of shape [n, per...], else a fresh
// one.
func fitResult(out *tensor.Tensor, n int, per []int) *tensor.Tensor {
	if out != nil && out.Rank() == 1+len(per) && out.Dim(0) == n && tensor.ShapeEq(out.Shape()[1:], per) {
		return out
	}
	var buf [8]int // keeps the result's shape off the heap until tensor.New copies it
	return tensor.New(append(append(buf[:0], n), per...)...)
}

// buildPlan lowers layers [from, to) to steps at element type F. The fusion
// scan is greedy over the canonical producer chains:
// Conv2D (+ReLU) and Linear (+ReLU). Dropout is identity at inference and
// compiles to nothing.
func buildPlan[F tensor.Float](s *Sequential, from, to int, dt Dtype) (*plan[F], error) {
	p := &plan[F]{src: s, elemSize: int64(dt.Size())}
	tag := "[" + dt.Short() + "]"
	layers := s.Layers()
	// fused packs the producer at i with its bias b, converted to F,
	// absorbing a ReLU that follows it inside the range.
	fused := func(i int, w, b *tensor.Tensor) (*tensor.Packed[F], string, int) {
		ep, lbl, end := tensor.Epilogue[F]{Bias: tensor.ToDense[F](b).Data()}, layers[i].Name(), i+1
		if end < to {
			if r, ok := layers[end].(*ReLU); ok {
				ep.ReLU, lbl, end = true, lbl+"+"+r.Name(), end+1
			}
		}
		return tensor.Pack(w, ep), lbl + tag, end
	}
	add := func(st step[F], i, j int) int {
		p.steps = append(p.steps, st)
		p.spans = append(p.spans, [2]int{i, j})
		return j
	}
	i := from
	for i < to {
		switch l := layers[i].(type) {
		case *Conv2D:
			k, lbl, j := fused(i, l.W.Value, l.B.Value)
			i = add(&convStep[F]{lbl: lbl, src: l, k: k}, i, j)
		case *Linear:
			k, lbl, j := fused(i, l.W.Value, l.B.Value)
			i = add(&linearStep[F]{lbl: lbl, src: l, k: k}, i, j)
		case *ReLU:
			i = add(&reluStep[F]{lbl: l.Name() + tag}, i, i+1)
		case *MaxPool2D:
			i = add(&maxPoolStep[F]{lbl: l.Name() + tag, src: l}, i, i+1)
		case *LocalResponseNorm:
			i = add(&lrnStep[F]{lbl: l.Name() + tag, src: l}, i, i+1)
		case *Flatten:
			i = add(&flattenStep[F]{lbl: l.Name() + tag}, i, i+1)
		case *Dropout:
			// Identity at inference: compiles to nothing.
			i++
		default:
			return nil, fmt.Errorf("nn: cannot compile layer %q (%T) for inference", layers[i].Name(), layers[i])
		}
	}
	p.labels = make([]string, len(p.steps))
	for k, st := range p.steps {
		p.labels[k] = st.label()
	}
	return p, nil
}

// convStep is a convolution through the direct kernel over packed weights,
// with the fused epilogue — bias add, optional ReLU — applied to the leaf's
// accumulators, so neither im2col's column matrix nor the pre-activation
// tensor is ever materialized.
type convStep[F tensor.Float] struct {
	lbl string
	src *Conv2D
	k   *tensor.Packed[F]
}

func (st *convStep[F]) label() string { return st.lbl }

func (st *convStep[F]) resolve(in []int) stepLayout {
	g := st.src.geom(in)
	taps := g.Taps()
	return stepLayout{out: []int{st.src.OutC, g.OutH(), g.OutW()}, taps: taps, scratch: taps.Scratch}
}

func (st *convStep[F]) sample(sl *stepLayout, x, y []F, ws *workspace[F]) {
	st.k.Conv(y, x, ws.scratch, sl.taps)
}

// linearStep is y = x·Wᵀ + b with an optional fused ReLU epilogue: the
// direct kernel's one-position case.
type linearStep[F tensor.Float] struct {
	lbl string
	src *Linear
	k   *tensor.Packed[F]
}

func (st *linearStep[F]) label() string { return st.lbl }

func (st *linearStep[F]) resolve(in []int) stepLayout {
	if tensor.Volume(in) != st.src.In {
		panic(fmt.Sprintf("nn: compiled %s expects %d inputs, got %d", st.lbl, st.src.In, tensor.Volume(in)))
	}
	return stepLayout{out: []int{st.src.Out}, scratch: tensor.LinearScratch}
}

func (st *linearStep[F]) sample(_ *stepLayout, x, y []F, ws *workspace[F]) {
	st.k.Linear(y, x, ws.scratch)
}

// reluStep is a standalone max(0, x) for positions where fusion did not
// apply (after pooling).
type reluStep[F tensor.Float] struct{ lbl string }

func (st *reluStep[F]) label() string { return st.lbl }

func (st *reluStep[F]) resolve(in []int) stepLayout { return stepLayout{out: in} }

func (st *reluStep[F]) sample(_ *stepLayout, x, y []F, _ *workspace[F]) {
	for i, v := range x {
		if !(v > 0) {
			v = 0
		}
		y[i] = v
	}
}

// maxPoolStep is the window-max sweep, without an argmax routing table: a
// training plan's backward finds the maximum again.
type maxPoolStep[F tensor.Float] struct {
	lbl string
	src *MaxPool2D
}

func (st *maxPoolStep[F]) label() string { return st.lbl }

func (st *maxPoolStep[F]) resolve(in []int) stepLayout {
	return stepLayout{out: st.src.OutShape(in)}
}

func (st *maxPoolStep[F]) sample(sl *stepLayout, x, y []F, _ *workspace[F]) {
	m := st.src
	c, h, w := sl.in[0], sl.in[1], sl.in[2]
	oh, ow := sl.out[1], sl.out[2]
	for ch := 0; ch < c; ch++ {
		in := x[ch*h*w:]
		outPlane := y[ch*oh*ow:]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				y0, x0 := oy*m.Stride, ox*m.Stride
				best := in[y0*w+x0]
				for ky := 0; ky < m.K; ky++ {
					for kx := 0; kx < m.K; kx++ {
						if v := in[(y0+ky)*w+(x0+kx)]; v > best {
							best = v
						}
					}
				}
				outPlane[oy*ow+ox] = best
			}
		}
	}
}

// lrnStep is the cross-channel local response normalization sweep. The
// x^(-β) power runs through math.Pow in float64 at both dtypes — exactly
// what the oracle does at Float64, and well inside the float32 epsilon
// budget at Float32.
type lrnStep[F tensor.Float] struct {
	lbl string
	src *LocalResponseNorm
}

func (st *lrnStep[F]) label() string { return st.lbl }

func (st *lrnStep[F]) resolve(in []int) stepLayout {
	if len(in) != 3 {
		panic(fmt.Sprintf("nn: compiled %s expects per-sample shape [C,H,W], got %v", st.lbl, in))
	}
	return stepLayout{out: in}
}

func (st *lrnStep[F]) sample(sl *stepLayout, x, y []F, _ *workspace[F]) {
	l := st.src
	c, hw := sl.in[0], sl.in[1]*sl.in[2]
	coef := F(l.Alpha) / F(l.N)
	for ch := 0; ch < c; ch++ {
		lo, hi := l.window(ch, c)
		for p := 0; p < hw; p++ {
			var sum F
			for j := lo; j < hi; j++ {
				v := x[j*hw+p]
				sum += v * v
			}
			s := F(l.K) + coef*sum
			idx := ch*hw + p
			y[idx] = x[idx] * F(math.Pow(float64(s), -l.Beta))
		}
	}
}

// flattenStep reshapes [C,H,W] to [D] — a view of the same flat sample:
// nothing runs.
type flattenStep[F tensor.Float] struct{ lbl string }

func (st *flattenStep[F]) label() string { return st.lbl }

func (st *flattenStep[F]) resolve(in []int) stepLayout {
	return stepLayout{out: []int{tensor.Volume(in)}, view: true}
}

func (st *flattenStep[F]) sample(*stepLayout, []F, []F, *workspace[F]) {}

// What follows is the training plan: the differentiable counterpart of a
// Float64 inference plan. Shredder never updates θ, so a noise-training step —
// and the inversion attack's — needs the range's forward pass in training
// mode and ∂loss/∂(its input), nothing else: BackwardInto. Pre-training is
// the one caller that also asks for ∂loss/∂θ: BackwardParams.
//
// Forward runs the inference plan's own steps, unchanged — the same packed
// weights, the same bits as the oracle's training-mode forward pass — but
// each step writes its output to its own slot of a per-sample arena instead
// of a ping-pong buffer, so the backward pass finds what it needs in a step's
// input and output: the sign a ReLU gates by (in the fused output), the
// window a max-pool's maximum came from and an LRN's denominators (recomputed
// from the input by the forward sweep's own expressions, so the same bits).
// Dropout is the one step an inference plan does not have, and its mask the
// one thing kept beside the activations; the masks of the whole batch are
// drawn serially from the pass's RNG — or each Dropout's own — before the
// samples fan out, in the oracle's order (layer by layer, sample-major), so a
// run's random stream does not depend on the schedule.
//
// Backward. A convolution's or linear layer's backward-data product runs the
// direct kernel over the weights packed once transposed
// (tensor.PackTransposed): every column gradient is the leaf's sum over the
// output channels ascending and overlapping taps are scatter-added in
// col2im's order, which is the oracle's association. Every other step
// repeats its layer's backward expression on one sample. The weight
// gradients follow the oracle's association too: a convolution's dW of one
// sample is Gᵀ·cols through MatMulT1's kernel (tensor.ConvBackTaps.WeightGrad)
// and its db the output gradient summed over positions ascending, both
// written to the sample's own row as the samples fan out, then added into
// Param.Grad in sample order; a linear layer's dW is Σ_i g_i ⊗ x_i summed
// over the samples ascending, a zero of g skipped as matmulT1Rows skips it,
// then added once, and its db takes every g_i in turn. Outputs, input
// gradients and weight gradients equal the oracle's bit for bit, under
// either leaf (TestTrainPlanEqualsTapeBitwise).

// TrainPlan is the training plan of a CompiledNet's layer range. It is
// immutable and safe for concurrent use: each run works through its own
// TrainPass.
type TrainPlan struct {
	p     *plan[float64] // the inference plan: its steps, its workspace pool
	steps []trainStep
	lay   atomic.Pointer[trainLayout]
}

// trainStep is one step of a training plan.
type trainStep struct {
	st    step[float64] // the inference plan's step; nil for a Dropout
	label string
	// Conv and linear steps: the weights packed transposed, and whether a
	// fused ReLU gates the gradient first.
	kT   *tensor.Packed[float64]
	relu bool
	drop *Dropout
}

// TrainPlan compiles the training plan of c's range from the network's
// weights as they are now, which must still be the ones c was compiled from.
// Only a Float64 plan has one. Compiling packs every weight of the range
// once more, transposed: a caller keeps the plan (core.Split compiles it on
// the first TrainNoise).
func (c *CompiledNet) TrainPlan() (*TrainPlan, error) {
	if c.p64 == nil {
		return nil, fmt.Errorf("nn: a %v plan has no training plan: training is float64", c.dtype)
	}
	layers := c.src.Layers()
	tp := &TrainPlan{p: c.p64}
	at := c.from
	// dropouts lowers the layers between two inference steps: Dropout is all
	// the inference compiler skips.
	dropouts := func(to int) {
		for ; at < to; at++ {
			if d := layers[at].(*Dropout); d.P > 0 {
				tp.steps = append(tp.steps, trainStep{label: d.Name() + "[f64]", drop: d})
			}
		}
	}
	for k, st := range c.p64.steps {
		dropouts(c.p64.spans[k][0])
		at = c.p64.spans[k][1]
		ts := trainStep{st: st, label: c.p64.labels[k]}
		switch st := st.(type) {
		case *convStep[float64]:
			ts.kT, ts.relu = tensor.PackTransposed[float64](st.src.W.Value), st.k.ReLU()
		case *linearStep[float64]:
			ts.kT, ts.relu = tensor.PackTransposed[float64](st.src.W.Value), st.k.ReLU()
		}
		tp.steps = append(tp.steps, ts)
	}
	dropouts(c.to)
	return tp, nil
}

// trainStepLayout is one training step's geometry for one per-sample input
// shape. x, y and mask are offsets into a sample's arena.
type trainStepLayout struct {
	stepLayout
	x, y int                  // the step's input (−1: the plan's) and output (the last step's: the result row)
	mask int                  // Dropout
	back *tensor.ConvBackTaps // convolutions
	dw   int                  // conv and linear steps: offset of the step's weight gradients in a sample's row
}

// trainLayout is a training plan's geometry for one per-sample input shape.
type trainLayout struct {
	in, out       []int
	steps         []trainStepLayout
	inVol, outVol int
	first, last   int // the first and last non-view steps, −1 if none
	arena         int // one sample's arena, elements
	grad          int // largest gradient, elements
	scratch       int // largest kernel scratch, forward or backward
	dw            int // one sample's row of weight gradients, elements
	dwScratch     int // largest scratch of a weight gradient
}

// layoutFor is plan.layoutFor for the training steps.
func (tp *TrainPlan) layoutFor(sample []int) *trainLayout {
	if l := tp.lay.Load(); l != nil && tensor.ShapeEq(l.in, sample) {
		return l
	}
	l := &trainLayout{in: append([]int(nil), sample...), steps: make([]trainStepLayout, len(tp.steps)), first: -1, last: -1}
	l.inVol = tensor.Volume(sample)
	shape, at := l.in, -1
	for k, ts := range tp.steps {
		sl := &l.steps[k]
		if ts.st == nil {
			sl.out = shape
		} else {
			sl.stepLayout = ts.st.resolve(shape)
		}
		sl.in, sl.inVol, sl.outVol = shape, tensor.Volume(shape), tensor.Volume(sl.out)
		sl.x, sl.y = at, at
		shape = sl.out
		if sl.view {
			continue
		}
		if l.first < 0 {
			l.first = k
		}
		l.last = k
		sl.y, at = l.arena, l.arena
		l.arena += sl.outVol
		l.grad = max(l.grad, sl.inVol, sl.outVol)
		switch st := ts.st.(type) {
		case nil:
			sl.mask = l.arena
			l.arena += sl.outVol
		case *lrnStep[float64]:
			sl.scratch = sl.in[0] // its backward: one term per channel
		case *convStep[float64]:
			sl.back = sl.taps.Geom.BackTaps(st.src.OutC)
			sl.scratch = max(sl.scratch, sl.back.Scratch)
			sl.dw, l.dw = l.dw, l.dw+st.src.W.Value.Len()+st.src.OutC
			l.dwScratch = max(l.dwScratch, sl.back.WeightScratch)
		case *linearStep[float64]:
			sl.dw, l.dw = l.dw, l.dw+st.src.Out // the gated output gradient
		}
		l.scratch = max(l.scratch, sl.scratch)
	}
	l.out, l.outVol = shape, tensor.Volume(shape)
	l.grad = max(l.grad, l.outVol)
	tp.lay.Store(l)
	return l
}

// TrainPass is one run's state on a TrainPlan: the arena of the batch in
// flight and the RNG its dropout masks come from. A pass belongs to one
// goroutine; any number of passes share a plan. Handed result tensors of the
// right shape, ForwardInto and BackwardInto allocate nothing once the arena
// has grown to the run's batch size; BackwardParams allocates nothing once
// its weight-gradient rows have.
type TrainPass struct {
	tp    *TrainPlan
	rng   *tensor.RNG
	l     *trainLayout
	n     int
	x, gy []float64 // the batch ForwardInto was given; the gradient a backward pass was
	out   []float64 // ForwardInto's result
	dx    []float64 // BackwardInto's result; nil under BackwardParams
	dw    []float64 // BackwardParams' weight gradients, one row per sample
	sum   []float64 // a linear layer's row of dW, summed over the samples
	arena []float64
	durs  []time.Duration // per-step wall time, under a profiler
	// The chunk bodies, built once, so a fan-out builds no closure.
	forward, backward func(lo, hi int)
}

// NewPass returns a pass drawing its dropout masks from rng. A nil rng draws
// each Dropout's masks from the generator the layer was built with, as
// pre-training does; such passes share those generators, so they must not
// run at once. It panics when rng is nil and a Dropout of the range was built
// without a generator.
func (tp *TrainPlan) NewPass(rng *tensor.RNG) *TrainPass {
	if rng == nil {
		for _, ts := range tp.steps {
			if ts.drop != nil && ts.drop.rng == nil {
				panic(fmt.Sprintf("nn: dropout %s was built without an RNG: pass an RNG to NewPass", ts.drop.Name()))
			}
		}
	}
	ps := &TrainPass{tp: tp, rng: rng}
	ps.forward = func(lo, hi int) { ps.chunk(lo, hi, false) }
	ps.backward = func(lo, hi int) { ps.chunk(lo, hi, true) }
	return ps
}

// ForwardInto runs the range in training mode on a batch x [N, ...] and
// returns its output [N, ...] — the oracle's training-mode forward pass, bit
// for bit — in dst, under InferInto's rule: a nil or wrong-shaped dst is
// replaced. Neither the result nor x may be written before the matching
// backward pass has returned: it reads both.
func (ps *TrainPass) ForwardInto(dst, x *tensor.Tensor) *tensor.Tensor {
	shape := x.Shape()
	if len(shape) < 2 {
		panic(fmt.Sprintf("nn: training plan expects a batched input [N, ...], got shape %v", shape))
	}
	l := ps.tp.layoutFor(shape[1:])
	ps.l, ps.n, ps.x = l, shape[0], x.Data()
	ps.arena = grow(ps.arena, ps.n*l.arena)
	dst = fitResult(dst, ps.n, l.out)
	ps.out = dst.Data()
	for k, ts := range ps.tp.steps {
		if ts.drop == nil {
			continue
		}
		sl, keep, rng := &l.steps[k], 1/(1-ts.drop.P), ps.rng
		if rng == nil {
			rng = ts.drop.rng
		}
		for i := 0; i < ps.n; i++ {
			mask := ps.arena[i*l.arena+sl.mask:][:sl.outVol]
			for j := range mask {
				mask[j] = keep
				if rng.Float64() < ts.drop.P {
					mask[j] = 0
				}
			}
		}
	}
	ps.run(ps.forward, false)
	return dst
}

// BackwardInto propagates grad, the gradient of a loss with respect to the
// last ForwardInto's result, and returns the gradient with respect to that
// call's input — the oracle's on a frozen tape, bit for bit — in dst, under
// the same rule. grad is only read. The weights' gradients are neither
// computed nor written: this is the pass of a run against frozen weights.
func (ps *TrainPass) BackwardInto(dst, grad *tensor.Tensor) *tensor.Tensor {
	ps.check(grad)
	dst = fitResult(dst, ps.n, ps.l.in)
	ps.gy, ps.dx = grad.Data(), dst.Data()
	ps.run(ps.backward, true)
	return dst
}

// BackwardParams propagates grad like BackwardInto and adds the gradient with
// respect to every weight of the range into its Param.Grad — what the
// oracle's recording tape adds, bit for bit: a convolution's
// per-sample gradients in sample order, a linear layer's summed over the
// samples first. It computes no gradient with respect to the input. The
// plan's packed weights are those it was compiled from: after a step that
// changes the weights, compile again.
func (ps *TrainPass) BackwardParams(grad *tensor.Tensor) {
	ps.check(grad)
	ps.gy, ps.dx = grad.Data(), nil
	ps.dw = grow(ps.dw, ps.n*ps.l.dw)
	ps.run(ps.backward, true)
	ps.addGrads()
}

// check panics unless grad matches the last forward pass's output.
func (ps *TrainPass) check(grad *tensor.Tensor) {
	if ps.l == nil || grad.Len() != ps.n*ps.l.outVol {
		panic(fmt.Sprintf("nn: training plan got gradient %v, which no forward pass's output matches", grad.Shape()))
	}
}

// run fans a chunk body out over the batch. Under a profiler the samples run
// in sequence and every step reports once, its time summed over the batch,
// through the attach point the inference plan uses.
func (ps *TrainPass) run(body func(lo, hi int), backward bool) {
	prof := ps.tp.p.src.activeProfiler()
	if prof == nil {
		tensor.ParallelChunks(ps.n, body)
		return
	}
	ps.durs = make([]time.Duration, len(ps.tp.steps))
	body(0, ps.n)
	for k, d := range ps.durs {
		vol := ps.l.steps[k].outVol
		if backward {
			vol = ps.l.steps[k].inVol
		}
		prof.ObserveLayer(ps.tp.steps[k].label, backward, d, int64(ps.n*vol)*8)
	}
	ps.durs = nil
}

// chunk runs samples [lo, hi) forward or backward in one workspace of the
// inference plan's pool, whose activation buffers carry the gradients.
func (ps *TrainPass) chunk(lo, hi int, backward bool) {
	l, p := ps.l, ps.tp.p
	scratch := l.scratch
	if backward && ps.dx == nil {
		scratch = max(scratch, l.dwScratch)
	}
	ws := p.workspaceFor(l.grad, scratch)
	for i := lo; i < hi; i++ {
		x, out := ps.x[i*l.inVol:(i+1)*l.inVol], ps.out[i*l.outVol:(i+1)*l.outVol]
		arena := ps.arena[i*l.arena : (i+1)*l.arena]
		switch {
		case !backward:
			ps.tp.forwardSample(l, ws, x, out, arena, ps.durs)
		case ps.dx != nil:
			ps.tp.backwardSample(l, ws, x, out, arena, ps.gy[i*l.outVol:(i+1)*l.outVol], ps.dx[i*l.inVol:(i+1)*l.inVol], nil, ps.durs)
		default:
			ps.tp.backwardSample(l, ws, x, out, arena, ps.gy[i*l.outVol:(i+1)*l.outVol], nil, ps.dw[i*l.dw:(i+1)*l.dw], ps.durs)
		}
	}
	p.pool.Put(ws)
}

// addGrads adds the weight gradients of BackwardParams' rows into the
// parameters, as the oracle does: a convolution's row of each sample in sample
// order; for a linear layer, dW = Σ g_i ⊗ x_i over the samples ascending, a
// zero of g skipped as matmulT1Rows skips it, is added once, and its bias takes
// every g_i in turn.
func (ps *TrainPass) addGrads() {
	l := ps.l
	for k, ts := range ps.tp.steps {
		sl := &l.steps[k]
		switch st := ts.st.(type) {
		case *convStep[float64]:
			dw, db := st.src.W.Grad.Data(), st.src.B.Grad.Data()
			for i := 0; i < ps.n; i++ {
				row := ps.dw[i*l.dw+sl.dw:][:len(dw)+len(db)]
				for j, v := range row[:len(dw)] {
					dw[j] += v
				}
				for j, v := range row[len(dw):] {
					db[j] += v
				}
			}
		case *linearStep[float64]:
			in, out := sl.inVol, sl.outVol
			dw, db := st.src.W.Grad.Data(), st.src.B.Grad.Data()
			ps.sum = grow(ps.sum, in)
			sum := ps.sum[:in]
			for o := 0; o < out; o++ {
				clear(sum)
				for i := 0; i < ps.n; i++ {
					g := ps.dw[i*l.dw+sl.dw+o]
					if g == 0 {
						continue
					}
					x := ps.x[i*l.inVol:]
					if sl.x >= 0 {
						x = ps.arena[i*l.arena+sl.x:]
					}
					for j, v := range x[:in] {
						sum[j] += g * v
					}
				}
				for j, v := range sum {
					dw[o*in+j] += v
				}
				for i := 0; i < ps.n; i++ {
					db[o] += ps.dw[i*l.dw+sl.dw+o]
				}
			}
		}
	}
}

// forwardSample runs one sample x through every step, each output to its
// arena slot and the last to out.
func (tp *TrainPlan) forwardSample(l *trainLayout, ws *workspace[float64], x, out, arena []float64, durs []time.Duration) {
	cur := x
	var t0 time.Time
	for k := range tp.steps {
		ts, sl := &tp.steps[k], &l.steps[k]
		if sl.view {
			continue
		}
		y := out
		if k != l.last {
			y = arena[sl.y : sl.y+sl.outVol]
		}
		if durs != nil {
			t0 = time.Now()
		}
		if ts.st != nil {
			ts.st.sample(&sl.stepLayout, cur, y, ws)
		} else {
			for j, m := range arena[sl.mask : sl.mask+sl.outVol] {
				y[j] = 0 // a dropped element is +0 whatever it held
				if m != 0 {
					y[j] = cur[j] * m
				}
			}
		}
		if durs != nil {
			durs[k] += time.Since(t0)
		}
		cur = y
	}
	if l.last < 0 {
		copy(out, x)
	}
}

// backwardSample walks one sample's steps in reverse from the output gradient
// gy to dx. The gradient in flight lives in the workspace's two activation
// buffers, so a step may gate it in place. With a row dw, a convolution or
// linear layer first writes its weight gradients there, and a nil dx stops
// the walk short of the input gradient.
func (tp *TrainPlan) backwardSample(l *trainLayout, ws *workspace[float64], x, out, arena, gy, dx, dw []float64, durs []time.Duration) {
	if l.last < 0 {
		copy(dx, gy)
		return
	}
	g, flip := ws.act[0][:l.outVol], 1
	copy(g, gy)
	var t0 time.Time
	for k := l.last; k >= l.first; k-- {
		ts, sl := &tp.steps[k], &l.steps[k]
		if sl.view {
			continue
		}
		in, y := x, out
		if sl.x >= 0 {
			in = arena[sl.x : sl.x+sl.inVol]
		}
		if k != l.last {
			y = arena[sl.y : sl.y+sl.outVol]
		}
		gx := dx
		if k != l.first {
			gx = ws.act[flip][:sl.inVol]
			flip ^= 1
		}
		if durs != nil {
			t0 = time.Now()
		}
		if ts.relu {
			reluBackward(g, g, y)
		}
		if dw != nil {
			switch st := ts.st.(type) {
			case *convStep[float64]:
				n := st.src.W.Value.Len()
				sl.back.WeightGrad(dw[sl.dw:sl.dw+n], dw[sl.dw+n:sl.dw+n+st.src.OutC], g, in, ws.scratch)
			case *linearStep[float64]:
				copy(dw[sl.dw:sl.dw+sl.outVol], g)
			}
		}
		if gx != nil {
			switch st := ts.st.(type) {
			case nil:
				for j, m := range arena[sl.mask : sl.mask+sl.outVol] {
					gx[j] = g[j] * m
				}
			case *convStep[float64]:
				ts.kT.ConvBackward(gx, g, ws.scratch, sl.back)
			case *linearStep[float64]:
				ts.kT.Linear(gx, g, ws.scratch)
			case *reluStep[float64]:
				reluBackward(gx, g, y)
			case *maxPoolStep[float64]:
				st.backward(&sl.stepLayout, in, g, gx)
			case *lrnStep[float64]:
				st.backward(&sl.stepLayout, in, g, gx, ws.scratch)
			default:
				panic(fmt.Sprintf("nn: training plan has no backward for %s", ts.label))
			}
		}
		if durs != nil {
			durs[k] += time.Since(t0)
		}
		g = gx
	}
}

// reluBackward is ReLU's backward pass: gx = g where the forward output y is
// positive, +0 elsewhere. gx may be g.
func reluBackward(gx, g, y []float64) {
	for j, v := range y {
		if v > 0 {
			gx[j] = g[j]
		} else {
			gx[j] = 0
		}
	}
}

// backward is MaxPool2D's backward pass on one sample: every output's gradient is
// added to the input element its maximum came from — found again as the
// forward sweep found it, the first of the window's largest — outputs
// ascending.
func (st *maxPoolStep[F]) backward(sl *stepLayout, x, g, gx []F) {
	m := st.src
	c, h, w := sl.in[0], sl.in[1], sl.in[2]
	oh, ow := sl.out[1], sl.out[2]
	clear(gx)
	for ch := 0; ch < c; ch++ {
		in, dplane, gplane := x[ch*h*w:], gx[ch*h*w:], g[ch*oh*ow:]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				y0, x0 := oy*m.Stride, ox*m.Stride
				best, bi := in[y0*w+x0], y0*w+x0
				for ky := 0; ky < m.K; ky++ {
					for kx := 0; kx < m.K; kx++ {
						if idx := (y0+ky)*w + (x0 + kx); in[idx] > best {
							best, bi = in[idx], idx
						}
					}
				}
				dplane[bi] += gplane[oy*ow+ox]
			}
		}
	}
}

// backward is LocalResponseNorm's backward pass on one sample, x the step's
// input.
// Per position it recomputes each channel's denominator base s by the forward
// sweep's expression, then the cross term's factor t_c = g_c·x_c·s_c^(−β−1)
// once per channel — the layer recomputes it for every window it falls in —
// and sums in the layer's order, so the bits are the layer's. scratch holds
// one value per channel.
func (st *lrnStep[F]) backward(sl *stepLayout, x, g, gx, scratch []F) {
	l := st.src
	c, hw := sl.in[0], sl.in[1]*sl.in[2]
	fwd := F(l.Alpha) / F(l.N)
	coef := F(2 * l.Beta * l.Alpha / float64(l.N))
	t := scratch[:c]
	clear(gx)
	for p := 0; p < hw; p++ {
		for ch := 0; ch < c; ch++ {
			lo, hi := l.window(ch, c)
			var sum F
			for j := lo; j < hi; j++ {
				v := x[j*hw+p]
				sum += v * v
			}
			s := float64(F(l.K) + fwd*sum)
			idx := ch*hw + p
			gx[idx] += g[idx] * F(math.Pow(s, -l.Beta))
			t[ch] = g[idx] * x[idx] * F(math.Pow(s, -l.Beta-1))
		}
		for j := 0; j < c; j++ {
			xj := x[j*hw+p]
			if xj == 0 {
				continue
			}
			// The channels whose window holds j.
			var acc F
			for ch := max(0, j-(l.N-1)/2); ch < min(c, j+l.N/2+1); ch++ {
				if lo, hi := l.window(ch, c); j >= lo && j < hi {
					acc += t[ch]
				}
			}
			gx[j*hw+p] -= coef * xj * acc
		}
	}
}
