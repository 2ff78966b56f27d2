package splitrt

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"shredder/internal/audit"
	"shredder/internal/core"
	"shredder/internal/nn"
	"shredder/internal/obs"
	"shredder/internal/quantize"
	"shredder/internal/sched"
	"shredder/internal/tensor"
	"shredder/internal/wire"
)

// CloudServer hosts the remote part R of a split network. It models the
// cloud side of the paper's deployment: it receives only noisy activations
// and returns logits, never seeing raw inputs.
//
// Concurrency model: inference runs a compiled plan of the remote part
// (nn.CompiledNet), which keeps no per-layer state and works in a per-call
// workspace, so every connection serves requests truly in parallel — there
// is no inference lock. The server's mutex guards only the connection
// registry and shutdown flag and is never held across an inference or a
// connection's I/O.
//
// With WithBatching, concurrent requests from *different* connections are
// coalesced by an internal sched.Batcher into one [N, ...] forward pass
// and the per-sample logits are demultiplexed back to each caller. This
// changes nothing about the privacy story — every sample arrives already
// noised on the edge — and nothing about the results: batched serving is
// bitwise identical to per-sample serving (pinned by tests). In batching
// mode each request on a connection is answered on its own goroutine, so
// one connection may pipeline several requests and receive the responses
// out of order, matched by ID.
type CloudServer struct {
	endpoint // listener, connections, debug server, window/SLO: shared with Gateway

	split    *core.Split
	cutLayer string

	handlerTimeout time.Duration
	// fault, when set, runs before every forward pass, inside its
	// panic/timeout guard — chaos, benchmarks and tests only. It is handed
	// the activation batch where that is float64, nil otherwise.
	fault func(act *tensor.Tensor)

	batchOpts *sched.Options
	batcher   *sched.Batcher[activation, *tensor.Tensor]

	dtype nn.Dtype        // WithDtype: the plan's arithmetic (default float64)
	plan  *nn.CompiledNet // the remote part at dtype: every forward pass runs it

	auditor *audit.Auditor // nil = audit trail disabled

	obs       *serverObs // nil = observability disabled (hot path pays nil checks only)
	profiling bool       // WithProfiling: attach a per-layer profiler to the remote net
}

// ServerOption configures a CloudServer. The options of the front end it
// shares with the Gateway (FrontOption: WithIdleTimeout, WithDebugServer,
// WithWindows, WithSLO) are ServerOptions too.
type ServerOption interface{ applyServer(*CloudServer) }

type serverOption func(*CloudServer)

func (f serverOption) applyServer(s *CloudServer) { f(s) }

// WithWriteTimeout bounds each response write by d (0 = no bound), so a
// client that stops draining its socket cannot wedge its serving goroutine.
func WithWriteTimeout(d time.Duration) ServerOption {
	return serverOption(func(s *CloudServer) { s.writeTimeout = d })
}

// WithHandlerTimeout bounds each remote forward pass by d (0 = no bound);
// a request exceeding it gets an error response instead of stalling the
// connection. Under batching the bound applies to the whole batched
// forward pass; every member of a timed-out batch receives the (retryable)
// timeout error.
func WithHandlerTimeout(d time.Duration) ServerOption {
	return serverOption(func(s *CloudServer) { s.handlerTimeout = d })
}

// WithLatencyInjection delays every forward pass by d before computing.
// It exists for chaos tests and benchmarks that need a deterministically
// slow backend — e.g. proving a pool's hedged requests cap tail latency —
// and must never be set on a production server.
func WithLatencyInjection(d time.Duration) ServerOption {
	return serverOption(func(s *CloudServer) { s.fault = func(*tensor.Tensor) { time.Sleep(d) } })
}

// WithDtype selects the arithmetic of the compiled plan (nn.CompileRange)
// every forward pass runs through. Float64, the default, equals the
// training path's forward pass bit for bit; Float32 halves the memory
// traffic, with classification decisions pinned to the float64 ones by
// tests. A quantized payload is dequantized once, straight into the plan's
// dtype: a Float32 server never materializes a float64 activation for it,
// batched or not. Compilation errors surface from Serve.
func WithDtype(dt nn.Dtype) ServerOption {
	return serverOption(func(s *CloudServer) { s.dtype = dt })
}

// WithBatching coalesces concurrent requests across connections into
// batched forward passes under the given knobs (sched.Options zero value =
// defaults: MaxBatch 16, MaxDelay 2ms). An idle server still answers a
// lone request immediately — the delay knob only bounds queueing behind an
// in-flight batch — so enabling batching never costs latency when there is
// no load to coalesce.
func WithBatching(opts sched.Options) ServerOption {
	return serverOption(func(s *CloudServer) { s.batchOpts = &opts })
}

// WithObservability attaches a metrics registry and span ring to the
// server: request/response/error-kind counters, latency/queue/compute
// histograms, batch occupancy, and per-request spans with
// queue/batch/compute sub-timings. Pass a shared registry to fold the
// server's metrics (and, under WithBatching, the scheduler's sched.*
// metrics) into one snapshot; nil arguments are replaced with fresh
// instances. Without this option (or WithDebugServer) the serving hot path
// records nothing and pays only nil checks.
func WithObservability(reg *obs.Registry, spans *obs.SpanRing) ServerOption {
	return serverOption(func(s *CloudServer) {
		if spans == nil {
			spans = obs.NewSpanRing(defaultSpanRing)
		}
		s.obs = newServerObs(reg, spans)
	})
}

// WithProfiling attaches an obs.Profiler to the split network for the
// server's lifetime: every remote forward pass reports per-layer wall time
// and scratch bytes, feeding profile.* histograms in the server's registry
// and the cumulative table at /debug/profile. It implies WithObservability
// when none was configured. The profiler is detached on Close. Note the
// profiler observes the *network*, so a process sharing one nn.Sequential
// between a server and other traffic profiles both.
func WithProfiling() ServerOption {
	return serverOption(func(s *CloudServer) { s.profiling = true })
}

// WithAudit attaches a tamper-evident audit trail: every successfully
// served request emits an audit.Record — trace ID, receive timestamp,
// model and cut, the edge's noise attribution (mode, member, sampled
// in-vivo 1/SNR), and a SHA-256 digest of the activation payload the
// server actually received — into the auditor's Merkle batcher.
// Inclusion proofs are served at /debug/audit (with WithDebugServer)
// and batch roots anchor through the auditor's ledger. The server takes
// ownership of the auditor: Close drains it after every in-flight
// request has finished — all emitted records are sealed and anchored
// before Close returns — and closes its ledger.
func WithAudit(a *audit.Auditor) ServerOption {
	return serverOption(func(s *CloudServer) { s.auditor = a })
}

// NewCloudServer creates a server for the given split. cutLayer is the
// layer name clients must declare in their handshake.
func NewCloudServer(split *core.Split, cutLayer string, opts ...ServerOption) *CloudServer {
	s := &CloudServer{split: split, cutLayer: cutLayer,
		endpoint: endpoint{role: "server", serves: hello{Network: split.Net.Name(), CutLayer: cutLayer}}}
	s.states.handle, s.debugSurface, s.drain, s.released = s.handle, s.surface, s.drainBatcher, s.release
	for _, o := range opts {
		o.applyServer(s)
	}
	var err error
	if s.plan, err = split.RemotePlan(s.dtype); err != nil {
		s.fail(fmt.Errorf("splitrt: compile remote part at %v: %w", s.dtype, err))
	}
	if (s.debugAddr != "" || s.profiling || s.windowed) && s.obs == nil {
		s.obs = newServerObs(obs.NewRegistry(), obs.NewSpanRing(defaultSpanRing))
	}
	s.observe(s.Metrics()) // a window implied the registry above
	if s.profiling {
		s.obs.prof = obs.NewProfiler(s.obs.reg)
		s.split.Net.SetProfiler(s.obs.prof)
	}
	if s.batchOpts != nil {
		if s.obs != nil {
			// The scheduler registers its own sched.* metrics in the same
			// registry so one snapshot covers the whole serving path.
			s.batchOpts.Metrics = s.obs.reg
		}
		s.batcher = sched.New(s.runBatch, *s.batchOpts)
		// Under batching every request is answered on its own goroutine, so
		// several can be in the batcher at once and one connection can pipeline.
		s.pipelined = true
	}
	return s
}

// Metrics returns the server's metrics registry, or nil when observability
// is disabled.
func (s *CloudServer) Metrics() *obs.Registry {
	if s.obs == nil {
		return nil
	}
	return s.obs.reg
}

// Auditor returns the server's audit trail, or nil when WithAudit is
// not configured.
func (s *CloudServer) Auditor() *audit.Auditor { return s.auditor }

// BatchStats returns the batching scheduler's counters; ok is false when
// the server runs without WithBatching.
func (s *CloudServer) BatchStats() (stats sched.Stats, ok bool) {
	if s.batcher == nil {
		return sched.Stats{}, false
	}
	return s.batcher.Stats(), true
}

// surface is what the server's debug endpoint shows.
func (s *CloudServer) surface() obs.Debug {
	dbg := obs.Debug{
		Metrics: s.obs.reg, Spans: s.obs.spans,
		Profile: s.obs.prof,
		Windows: s.windows, Events: s.slo.Events(),
	}
	if s.auditor != nil {
		dbg.Audit = audit.Handler(audit.LocalSource{Auditor: s.auditor})
	}
	return dbg
}

// handle computes R(a′) for the request in st and leaves the response there.
// Validation errors are classified per request (ErrBadRequest) before the
// batcher is involved, so a malformed payload can never poison a batch it
// would have ridden in. The request's trace ID is echoed on the response, and
// with observability enabled the whole exchange is recorded as a span whose
// stages split the latency into queue / batch / compute time.
func (s *CloudServer) handle(ctx context.Context, st *reqState) {
	req, resp := &st.req, &st.resp
	o := s.obs
	var t0, computeStart time.Time
	if o != nil {
		o.requests.Inc()
		t0 = time.Now()
	}
	*resp = response{ID: req.ID, Trace: req.Trace}
	act, kind, msg := s.decode(st)
	if kind != ErrUnknown {
		resp.Err, resp.Kind = msg, kind
		o.finish(req, resp, t0, nil, computeStart)
		return
	}
	var err error
	var si *sched.SubmitInfo
	if s.batcher != nil {
		if o != nil {
			si = &st.info
		}
		st.logits, err = s.batcher.SubmitTraced(ctx, act, act.n, si)
	} else {
		if o != nil {
			computeStart = time.Now()
		}
		st.logits, err = s.infer(act)
	}
	if err != nil {
		// A forward pass that overran the handler timeout, or a flight this
		// handler left on ctx.Done(), still reads the activation and writes
		// the logits: they stay its own.
		st.forfeit = true
		resp.Err, resp.Kind = err.Error(), classify(err)
		// SubmitInfo contents are unspecified after an error; don't report
		// its timings.
		o.finish(req, resp, t0, nil, computeStart)
		return
	}
	resp.Logits = st.logits
	o.finish(req, resp, t0, si, computeStart)
	o.observeAudit(req.Audit)
	s.auditRecord(st)
}

// auditRecord emits one request's evidence record into the audit trail.
// Called only for successfully served requests, synchronously inside
// handle — so Close's wg.Wait → auditor.Close ordering guarantees every
// emitted record is sealed and anchored before shutdown completes.
func (s *CloudServer) auditRecord(st *reqState) {
	if s.auditor == nil {
		return
	}
	rec := audit.Record{
		Trace:     st.req.Trace,
		UnixNanos: time.Now().UnixNano(),
		Model:     s.split.Net.Name(),
		Cut:       s.cutLayer,
		Mode:      "none",
		Member:    -2,
		ActDigest: digestRequest(&st.digest, &st.req),
	}
	if n := st.req.Audit; n != nil {
		rec.Mode, rec.Member, rec.InVivo, rec.Sampled = n.Mode, n.Member, n.InVivo, n.Sampled
	}
	// The only Append failure modes are a closed auditor (impossible
	// here: Close drains connections first) and an unencodable record
	// (bounded fields throughout); neither should fail the request.
	_ = s.auditor.Append(rec)
}

// digestRequest hashes the activation payload exactly as received, through
// the digest state the request's own state keeps: quantized requests digest
// the packed level bytes under their scheme, dense requests the little-endian
// float64 bits the frame carried. The digest commits the server to what the
// cloud actually saw — the noised bytes — without the ledger ever storing the
// activation itself. A gateway relays those bytes untouched: the digest does
// not depend on the topology.
func digestRequest(d *audit.Digester, req *request) [32]byte {
	if q := req.Quant; q != nil {
		// fmt.Sprintf("quant/%d/%g/%g", bits, lo, hi), the tag the ledgers on
		// disk were written with, built without fmt: this runs per request.
		var buf [64]byte
		tag := strconv.AppendInt(append(buf[:0], "quant/"...), int64(q.Bits), 10)
		tag = strconv.AppendFloat(append(tag, '/'), q.Lo, 'g', -1, 64)
		tag = strconv.AppendFloat(append(tag, '/'), q.Hi, 'g', -1, 64)
		return d.Activation(tag, q.Shape, q.Packed)
	}
	if req.Activation == nil {
		return d.Activation([]byte("none"), nil, nil)
	}
	return d.Floats([]byte("dense"), req.Activation.Shape(), req.Activation.Data())
}

// checkRequest validates a request from its header alone: the frame was
// well-formed, a payload is there, its quantization scheme is one (returned),
// its declared shape is a batch of the split's activations — decodeRequest
// has held the payload's length against that shape. A non-ErrUnknown kind
// means the request is refused. Shared by the CloudServer, which goes on to
// decode the payload, and the fleet Gateway, which relays it as it is.
func checkRequest(split *core.Split, req *request) (scheme quantize.Scheme, kind ErrKind, msg string) {
	if req.malformed != "" {
		return scheme, ErrBadRequest, req.malformed
	}
	var got []int
	switch {
	case req.Activation != nil:
		got = req.Activation.Shape()
	case req.Quant != nil:
		var err error
		if scheme, err = quantize.NewScheme(req.Quant.Bits, req.Quant.Lo, req.Quant.Hi); err != nil {
			return scheme, ErrBadRequest, fmt.Sprintf("bad quantization scheme: %v", err)
		}
		got = req.Quant.Shape
	default:
		return scheme, ErrBadRequest, "missing activation"
	}
	want := split.ActivationShape()
	if len(got) != len(want)+1 || !tensor.ShapeEq(got[1:], want) {
		return scheme, ErrBadRequest, fmt.Sprintf("activation shape %v does not match expected [N %v]", got, want)
	}
	return scheme, ErrUnknown, ""
}

// activation is a batch of n activations as the plan takes it, in exactly
// one of the two fields, and where the plan is to put their logits. A dense
// payload stays the float64 tensor the frame carried (a float32 plan narrows
// it sample by sample in its workspace); a packed payload has been
// dequantized once, at the plan's dtype. All three tensors belong to the
// request's state; dst is nil or of another shape until the state has served
// a request of this size.
type activation struct {
	n   int
	f64 *tensor.Tensor
	f32 *tensor.Tensor32
	dst *tensor.Tensor
}

// decode is the server's one decode step, the same for every configuration:
// payload → activation at the plan's dtype, in the tensors the state keeps.
func (s *CloudServer) decode(st *reqState) (act activation, kind ErrKind, msg string) {
	req := &st.req
	scheme, kind, msg := checkRequest(s.split, req)
	if kind != ErrUnknown {
		return act, kind, msg
	}
	act.dst = st.logits
	q := req.Quant
	if q == nil {
		act.n, act.f64 = req.Activation.Dim(0), req.Activation
		return act, ErrUnknown, ""
	}
	// decodeRequest has held the payload's length against the shape, so the
	// buffers sized from it here are no larger than the peer's bytes could
	// fill. The packed levels land in the state's own buffer, where the
	// audit digest reads them.
	act.n = q.Shape[0]
	var err error
	if q.Packed, err = wire.AppendDecoded(&st.dec, q.Packed[:0], q.Coded, int(scheme.WireBytes(tensor.Volume(q.Shape)))); err != nil {
		return act, ErrBadRequest, fmt.Sprintf("bad quantized payload: %v", err)
	}
	if s.dtype == nn.Float32 {
		if st.f32 == nil || !tensor.ShapeEq(st.f32.Shape(), q.Shape) {
			st.f32 = tensor.NewDense[float32](q.Shape...)
		}
		act.f32, err = st.f32, quantize.DequantizeInto(scheme, st.f32.Data(), q.Packed)
	} else {
		if st.f64 == nil || !tensor.ShapeEq(st.f64.Shape(), q.Shape) {
			st.f64 = tensor.New(q.Shape...)
		}
		act.f64, err = st.f64, quantize.DequantizeInto(scheme, st.f64.Data(), q.Packed)
	}
	if err != nil {
		return act, ErrBadRequest, fmt.Sprintf("bad quantized payload: %v", err)
	}
	return act, ErrUnknown, ""
}

// errHandlerTimeout marks a forward pass that exceeded the handler
// timeout; classify maps it to the retryable ErrTimeout wire kind.
var errHandlerTimeout = errors.New("inference exceeded handler timeout")

// classify maps a server-side inference error to its wire kind.
func classify(err error) ErrKind {
	switch {
	case errors.Is(err, errHandlerTimeout):
		return ErrTimeout
	case errors.Is(err, sched.ErrClosed):
		return ErrShutdown
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return ErrShutdown
	default:
		return ErrInternal
	}
}

// runBatch is the sched.Batcher flush function: it stacks the coalesced
// [nᵢ, ...] activation batches into one [Σnᵢ, ...] buffer at the plan's
// dtype, runs a single remote forward pass, and splits the logits back into
// each request's own destination. Stacking and splitting are pure copies (a
// dense payload in front of a float32 plan is narrowed here exactly as the
// plan would have), and every layer treats batch members independently on the
// inference path, so the per-request logits are bitwise identical to
// per-sample serving's. A batch of one — all an idle server ever sees — runs
// straight from and into its request's tensors. out is the flight's.
func (s *CloudServer) runBatch(acts []activation, out []*tensor.Tensor) error {
	if len(acts) == 1 {
		var err error
		out[0], err = s.infer(acts[0])
		return err
	}
	var stacked activation
	for _, a := range acts {
		stacked.n += a.n
	}
	shape := append([]int{stacked.n}, s.split.ActivationShape()...)
	if s.dtype == nn.Float32 {
		stacked.f32 = tensor.NewDense[float32](shape...)
		dst := stacked.f32.Data()
		for _, a := range acts {
			if a.f32 != nil {
				dst = dst[copy(dst, a.f32.Data()):]
				continue
			}
			for i, v := range a.f64.Data() {
				dst[i] = float32(v)
			}
			dst = dst[a.f64.Len():]
		}
	} else {
		stacked.f64 = tensor.New(shape...)
		dst := stacked.f64.Data()
		for _, a := range acts {
			dst = dst[copy(dst, a.f64.Data()):]
		}
	}
	logits, err := s.infer(stacked)
	if err != nil {
		return err
	}
	outShape := logits.Shape()[1:]
	outVol := tensor.Volume(outShape)
	row := 0
	for i, a := range acts {
		o := a.dst
		if o == nil || o.Dim(0) != a.n || !tensor.ShapeEq(o.Shape()[1:], outShape) {
			o = tensor.New(append([]int{a.n}, outShape...)...)
		}
		copy(o.Data(), logits.Data()[row*outVol:(row+a.n)*outVol])
		out[i] = o
		row += a.n
	}
	return nil
}

// forward runs one remote forward pass; a panic (a bad payload that slipped
// past validation) becomes an error instead of crashing the server.
func (s *CloudServer) forward(act activation) (out *tensor.Tensor, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("remote inference failed: %v", r)
		}
	}()
	if s.fault != nil {
		s.fault(act.f64)
	}
	if act.f32 != nil {
		return s.plan.Infer32Into(act.dst, act.f32), nil
	}
	return s.plan.InferInto(act.dst, act.f64), nil
}

// infer is forward bounded by the handler timeout, when one is set. On
// timeout the computation goroutine is left to finish in the background (Go
// cannot cancel a compute loop); the request gets an error.
func (s *CloudServer) infer(act activation) (*tensor.Tensor, error) {
	if s.handlerTimeout <= 0 {
		return s.forward(act)
	}
	type res struct {
		t   *tensor.Tensor
		err error
	}
	done := make(chan res, 1)
	go func() {
		t, err := s.forward(act)
		done <- res{t, err}
	}()
	timer := time.NewTimer(s.handlerTimeout)
	defer timer.Stop()
	select {
	case r := <-done:
		return r.t, r.err
	case <-timer.C:
		return nil, fmt.Errorf("%w %v", errHandlerTimeout, s.handlerTimeout)
	}
}

// drainBatcher is the server's step of Close before connections are severed:
// pending slots are flushed as one final batch, so callers already in the
// pipeline get real responses on live sockets rather than errors; anything
// submitted afterwards fails with the retryable shutdown kind.
func (s *CloudServer) drainBatcher() {
	if s.batcher != nil {
		s.batcher.Close()
	}
}

// release is the server's step of Close after every serving goroutine has
// returned.
func (s *CloudServer) release() {
	if s.auditor != nil {
		// Every record is already appended; draining the auditor seals the
		// in-progress batch and anchors every sealed batch before the ledger
		// closes — a server killed mid-batch loses nothing it acknowledged.
		s.auditor.Close()
	}
	if s.profiling {
		// Detach the profiler this server attached so a shared network does
		// not keep paying the instrumented path after the server is gone.
		s.split.Net.SetProfiler(nil)
	}
}
