package splitrt

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"shredder/internal/core"
	"shredder/internal/obs"
	"shredder/internal/quantize"
	"shredder/internal/tensor"
	"shredder/internal/wire"
)

// EdgeClient is the device side of split inference: its core.Edge runs the
// local part L and perturbs the activation with a per-query draw from a
// noise source (stored collection or fitted distributions), and the client
// sends only the noisy activation to the cloud. When the source is nil the
// client transmits raw activations (the paper's "original execution"
// baseline).
//
// The wire protocol is request/response over a single connection, so the
// client serializes round trips internally: Infer/Classify are safe to
// call from multiple goroutines (the local forward passes still run
// concurrently; the edge serializes its draws and the client the wire
// exchange, packing included).
// Stats is lock-free and safe to call from a concurrent poller at any time.
type EdgeClient struct {
	edge *core.Edge // L, the noise and its monitor: the step before the wire

	// mu guards the connection state (conn/broken), wireBits and the
	// per-call storage below it. A call holds it from taking that storage to
	// its response, so one call at a time uses it.
	mu sync.Mutex

	// acts holds the edge activations no call is using: InferContext takes
	// one for its local forward pass (which runs outside mu, so several may
	// be out at once) and puts it back when relay has returned — the
	// exchange is synchronous, nothing reads the activation after that.
	acts freeList[tensor.Tensor]

	addr     string
	cutLayer string

	conn *frameConn

	// Metrics live on the client, not the connection, so cumulative stats
	// survive reconnects. Every handle is an atomic obs metric, so Stats
	// and a shared registry's Snapshot are always coherent reads — there is
	// no torn-read window against an in-flight request.
	reg       *obs.Registry // nil unless WithMetrics shared one
	m         clientMetrics
	nextID    uint64
	lastTrace uint64 // atomic: trace ID of the most recent request

	wireBits int          // 0 = dense float transport
	quant    quantPayload // the request on the wire, packed and coded; the buffers are kept between requests
	note     auditNote    // the request's privacy attribution

	timeout    time.Duration // per-call bound when the context has no deadline
	maxRedials int           // reconnect attempts per broken call
	redialBase time.Duration // first backoff step, doubled per attempt
	redialMax  time.Duration // backoff ceiling
	broken     bool          // transport errored; redial before next use
}

// ClientOption configures an EdgeClient at Dial time.
type ClientOption interface{ applyClient(*EdgeClient) }

type clientOption func(*EdgeClient)

func (f clientOption) applyClient(c *EdgeClient) { f(c) }

// WithTimeout bounds every Infer call that arrives without a context
// deadline (0 = no bound). The deadline covers the network round trip, not
// the local forward pass.
func WithTimeout(d time.Duration) ClientOption {
	return clientOption(func(c *EdgeClient) { c.timeout = d })
}

// RegistryOption is the one registry option, WithMetrics: a ClientOption, a
// PoolOption and a GatewayOption.
type RegistryOption interface {
	ClientOption
	PoolOption
	GatewayOption
}

type registryOption struct{ reg *obs.Registry }

func (o registryOption) applyClient(c *EdgeClient) { c.reg = o.reg }
func (o registryOption) applyPool(p *Pool)         { p.reg = o.reg }
func (o registryOption) applyGateway(g *Gateway)   { g.reg = o.reg }

// WithMetrics registers the component's metrics in the given registry
// instead of a private one, so they show up alongside other components in
// one snapshot: a client's client.requests, client.redials,
// client.bytes_sent, client.bytes_received, client.rtt_seconds and
// client.errors.*; a pool's pool.requests, pool.reroutes, pool.hedges,
// pool.hedge_wins, pool.ejections, pool.readmits and per-backend
// pool.backend.<addr>.* series; a gateway's gateway.requests and
// gateway.errors (by default the gateway registers in its pool's registry —
// one snapshot covering the gateway and the whole fleet).
func WithMetrics(reg *obs.Registry) RegistryOption { return registryOption{reg} }

// TelemetryOption is the one privacy-monitor option, WithPrivacyTelemetry: a
// ClientOption and a PoolOption — whichever role noises the activation.
type TelemetryOption interface {
	ClientOption
	PoolOption
}

type telemetryOption struct{ m *core.PrivacyMonitor }

func (o telemetryOption) applyClient(c *EdgeClient) { c.edge.Monitor = o.m }
func (o telemetryOption) applyPool(p *Pool)         { p.edge.Monitor = o.m }

// WithPrivacyTelemetry feeds every noise application of a client, or of a
// pool, to a core.PrivacyMonitor: per-member sampling balance on each query
// and, at the monitor's sampling rate, the realized in-vivo 1/SNR of the
// clean activation the noise lands on — which then rides the request's audit
// note. A nil monitor is valid and disables the telemetry.
func WithPrivacyTelemetry(m *core.PrivacyMonitor) TelemetryOption { return telemetryOption{m} }

// WithReconnect makes the client transparently redial and re-handshake a
// broken connection up to max times per call, sleeping base, 2·base,
// 4·base, ... (capped at 2s, jittered ±20%) between attempts. The backoff
// schedule restarts from base on every reconnect episode: an outage that
// was redialed away leaves no state behind, so a later transient failure
// does not start at the ceiling. Without this option a transport error is
// returned to the caller after a single redial attempt on the next use.
func WithReconnect(max int, base time.Duration) ClientOption {
	return clientOption(func(c *EdgeClient) {
		if max < 0 {
			max = 0
		}
		if base <= 0 {
			base = 50 * time.Millisecond
		}
		c.maxRedials = max
		c.redialBase = base
	})
}

// Stats reports cumulative wire traffic of the connection.
type Stats struct {
	BytesSent     int64
	BytesReceived int64
	Requests      uint64
	Redials       int
}

// Stats returns the client's transfer statistics. It is a compatibility
// wrapper over the client's registered obs metrics: every field is an
// atomic read, so polling Stats concurrently with in-flight requests and
// redials is race-free.
func (c *EdgeClient) Stats() Stats {
	return Stats{
		BytesSent:     c.m.sent.Value(),
		BytesReceived: c.m.received.Value(),
		Requests:      atomic.LoadUint64(&c.nextID),
		Redials:       int(c.m.redials.Value()),
	}
}

// LastTrace returns the trace ID of the client's most recent request —
// the key a caller hands to /debug/audit (or `shredder audit verify`)
// to fetch the inclusion proof showing its query's noise was recorded.
func (c *EdgeClient) LastTrace() obs.TraceID {
	return obs.TraceID(atomic.LoadUint64(&c.lastTrace))
}

// SetWireQuantization switches the activation transport to linear
// quantization with the given bit width (0 restores dense float transport).
// Levels are bit-packed and the packed bytes Huffman-coded, so the payload
// takes at most bits bits a value (plus one byte) where a dense one takes
// 58 in the narrow form and 64 raw, and, for the Laplace-shaped levels
// noise gives, some 14 % less than that. Being
// deterministic post-processing, it can only decrease the information the
// cloud receives.
func (c *EdgeClient) SetWireQuantization(bits int) error {
	if bits != 0 {
		if _, err := quantize.NewScheme(bits, 0, 1); err != nil {
			return err
		}
	}
	c.mu.Lock()
	c.wireBits = bits
	c.mu.Unlock()
	return nil
}

// errHandshakeRejected marks a dial that reached the server but was turned
// away at the hello exchange (wrong network, cut layer or protocol version).
// Redialing cannot help — the server will keep refusing — so reconnect
// treats it as terminal instead of burning the backoff budget.
var errHandshakeRejected = errors.New("handshake rejected")

// Dial connects to a CloudServer and performs the handshake. src may be a
// stored *core.Collection, a *core.FittedCollection, or nil for the
// no-noise baseline.
func Dial(addr string, split *core.Split, cutLayer string, src core.NoiseSource, seed int64, opts ...ClientOption) (*EdgeClient, error) {
	c := &EdgeClient{
		edge: core.NewEdge(split, src, seed),
		addr: addr, cutLayer: cutLayer,
		redialBase: 50 * time.Millisecond, redialMax: 2 * time.Second,
	}
	for _, o := range opts {
		o.applyClient(c)
	}
	c.m = newClientMetrics(c.reg)
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// connect dials and handshakes, installing the fresh connection.
func (c *EdgeClient) connect() error {
	raw, err := net.Dial("tcp", c.addr)
	if err != nil {
		return fmt.Errorf("splitrt: dial: %w", err)
	}
	conn := &frameConn{conn: raw, sent: c.m.sent, received: c.m.received,
		poke: func() { raw.SetDeadline(time.Unix(1, 0)) }}
	h := hello{Version: protoVersion, Network: c.edge.Split.Net.Name(), CutLayer: c.cutLayer}
	conn.wbuf = h.appendFrame(conn.wbuf)
	if err := conn.flush(); err != nil {
		conn.Close()
		return fmt.Errorf("splitrt: handshake send: %w", err)
	}
	var ack helloAck
	body, err := conn.readFrame(maxHandshakeBody)
	if err == nil {
		ack, err = decodeAck(body)
	}
	if err != nil {
		conn.Close()
		return fmt.Errorf("splitrt: handshake recv: %w", err)
	}
	if !ack.OK {
		conn.Close()
		return fmt.Errorf("splitrt: %w: %s", errHandshakeRejected, ack.Err)
	}
	c.conn = conn
	c.broken = false
	return nil
}

// reconnect runs one redial episode: up to max(1, maxRedials) dial
// attempts, the first immediate (the break was only just detected and the
// server may already be back), each later one preceded by an exponential
// backoff step that restarts from redialBase for every episode. The caller
// must hold c.mu. A context cancellation aborts the wait; a rejected
// handshake aborts the episode early because retrying it cannot succeed.
func (c *EdgeClient) reconnect(ctx context.Context) error {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	dials := c.maxRedials
	if dials < 1 {
		// Even a client without WithReconnect gets one fresh dial per call
		// on a broken connection — otherwise a single transport error would
		// wedge the client forever.
		dials = 1
	}
	var err error
	for attempt := 1; attempt <= dials; attempt++ {
		if attempt > 1 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(redialDelay(c.redialBase, c.redialMax, attempt-1, jitter())):
			}
		}
		if err = c.connect(); err == nil {
			c.m.redials.Inc()
			return nil
		}
		if errors.Is(err, errHandshakeRejected) {
			return err
		}
	}
	return fmt.Errorf("splitrt: reconnect failed after %d attempts: %w", dials, err)
}

// redialDelay is the pure backoff schedule: the wait before the n-th retry
// (n ≥ 1) within one episode is base·2^(n-1) capped at max, stretched or
// shrunk by up to 20% according to jitter j in [-1, 1]. The jitter is what
// keeps a fleet of clients that lost the same server from redialing it in
// lockstep when it comes back.
func redialDelay(base, max time.Duration, n int, j float64) time.Duration {
	d := base
	for i := 1; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	d += time.Duration(0.2 * j * float64(d))
	if d < 0 {
		d = 0
	}
	return d
}

// jitter draws a uniform value in [-1, 1]. It is not the noise stream's: a
// redial does not move the draws of the queries after it.
func jitter() float64 { return 2*rand.Float64() - 1 }

// Infer runs split inference on a batch [N, C, H, W] and returns the
// logits computed by the cloud. Each sample gets an independently sampled
// noise tensor, as at real inference time (paper §2.5).
func (c *EdgeClient) Infer(x *tensor.Tensor) (*tensor.Tensor, error) {
	return c.InferContext(context.Background(), x)
}

// InferContext is Infer bounded by a context: the context's deadline (or
// the client's configured timeout, when the context has none) is applied
// to the network round trip, and a broken connection is transparently
// redialed with backoff when WithReconnect is configured.
func (c *EdgeClient) InferContext(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	a, at := c.edge.Step(c.acts.take(), x) // the local pass is reentrant; the draws take the edge's own lock

	c.mu.Lock()
	req := request{Activation: a}
	if at.Mode != "" {
		c.note = at
		req.Audit = &c.note
	}
	logits, err := c.relayLocked(ctx, req)
	c.mu.Unlock()
	c.acts.give(a)
	return logits, err
}

// InferActivation ships an already-prepared cut-layer activation batch to
// the cloud and returns the logits, skipping the local forward pass and
// noise injection — for components that forward activations noised
// elsewhere. The caller is responsible for the activation already carrying
// whatever protection it needs; a client's own noise collection is applied
// only by Infer/InferContext.
func (c *EdgeClient) InferActivation(ctx context.Context, a *tensor.Tensor) (*tensor.Tensor, error) {
	return c.relay(ctx, request{Activation: a})
}

// relay ships one request and returns its logits: every call of the client
// ends here. Payload, trace and audit note are the caller's — a pool
// relaying for a gateway passes on what the edge sent, packed bytes
// included. The ID is the client's own (IDs are per connection), a zero
// trace is minted, and a dense payload goes out in the client's wire format.
// The call owns the connection until the response is in: when relay returns,
// nothing of the client reads req any more.
func (c *EdgeClient) relay(ctx context.Context, req request) (*tensor.Tensor, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.relayLocked(ctx, req)
}

// relayLocked is relay for a caller that holds c.mu.
func (c *EdgeClient) relayLocked(ctx context.Context, req request) (*tensor.Tensor, error) {
	req.ID = atomic.AddUint64(&c.nextID, 1)
	c.m.requests.Inc()
	if req.Trace == 0 {
		req.Trace = uint64(obs.NewTraceID())
	}
	atomic.StoreUint64(&c.lastTrace, req.Trace)
	return c.exchange(ctx, req)
}

// pack swaps req's dense activation for its coded form at the client's wire
// width, in the buffers the client keeps for it: the levels are packed, then
// coded. The shape is the activation's own, only read. The caller holds c.mu:
// one request uses the buffers at a time.
func (c *EdgeClient) pack(req *request) error {
	a := req.Activation
	scheme, err := quantize.Fit(a, c.wireBits)
	if err != nil {
		return fmt.Errorf("splitrt: quantize: %w", err)
	}
	q := &c.quant
	q.Bits, q.Lo, q.Hi, q.Shape = scheme.Bits, scheme.Lo, scheme.Hi, a.Shape()
	q.Packed = scheme.AppendPacked(q.Packed[:0], a.Data())
	q.Coded = wire.AppendCoded(q.Coded[:0], q.Packed)
	req.Activation, req.Quant = nil, q
	return nil
}

// exchange packs the request for the wire and runs the request/response
// loop (with retries and redials). The caller holds c.mu: the wire exchange
// (and any redialing) owns the connection state for the duration of the
// call, one request/response in flight at a time.
func (c *EdgeClient) exchange(ctx context.Context, req request) (*tensor.Tensor, error) {
	if c.wireBits > 0 && req.Activation != nil {
		if err := c.pack(&req); err != nil {
			return nil, err
		}
	}
	var lastErr error
	retries := 0 // remote-error resends; counted apart from redial episodes
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if c.broken || c.conn == nil {
			if attempt > c.maxRedials {
				break
			}
			if err := c.reconnect(ctx); err != nil {
				return nil, err
			}
		}
		logits, err := c.roundTrip(ctx, req)
		if err == nil {
			return logits, nil
		}
		lastErr = err
		var rerr *RemoteError
		if errors.As(err, &rerr) {
			// The server answered with a typed error. Only the transient
			// kinds (handler timeout, shutdown) are worth resending — and
			// only when the caller opted into retries via WithReconnect;
			// a bad-request or internal error would fail identically.
			if !rerr.Retryable() || c.maxRedials == 0 || attempt >= c.maxRedials {
				return nil, err
			}
			// Back off by the resend count, not the loop's attempt counter:
			// redial episodes that happened earlier in this call must not
			// escalate the pacing of an unrelated server-side transient.
			retries++
			if err := c.sleepBackoff(ctx, retries); err != nil {
				return nil, err
			}
			continue
		}
		if !c.broken || c.maxRedials == 0 {
			// Transport errors with reconnect disabled (and the stream
			// desync case) are returned to the caller directly.
			return nil, err
		}
		if attempt >= c.maxRedials {
			break
		}
	}
	return nil, fmt.Errorf("splitrt: request failed after retries: %w", lastErr)
}

// roundTrip sends one request and decodes its response on the current
// connection, applying the call deadline. Transport failures mark the
// connection broken; protocol failures (remote error string, ID mismatch)
// do not. Every attempt fills the connection's write buffer with the
// request frame, flushes it in one write, blocks for the response's length
// prefix, then reads and decodes the body.
func (c *EdgeClient) roundTrip(ctx context.Context, req request) (*tensor.Tensor, error) {
	deadline, ok := ctx.Deadline()
	if !ok && c.timeout > 0 {
		deadline = time.Now().Add(c.timeout)
		ok = true
	}
	if ok {
		if err := c.conn.SetDeadline(deadline); err != nil {
			c.broken = true
			c.m.transportErrs.Inc()
			return nil, fmt.Errorf("splitrt: set deadline: %w", err)
		}
	} else if err := c.conn.SetDeadline(time.Time{}); err != nil {
		c.broken = true
		c.m.transportErrs.Inc()
		return nil, fmt.Errorf("splitrt: clear deadline: %w", err)
	}
	// An explicit cancellation (not just a deadline) must be able to interrupt
	// a blocked read: the connection's deadline is poked into the past so the
	// transport call fails immediately and the loop above surfaces ctx.Err().
	// This is what lets a hedged duplicate request be abandoned the instant
	// the other attempt wins. A poke that has started may land late: the
	// connection, its target, then serves no later request.
	switch w := req.watch; {
	case w != nil:
		// The accepting connection this request came in on does the poking
		// (relayWatch): nothing to register, nothing to tear down.
		w.arm(c.conn)
		defer func() {
			if !w.disarm() {
				c.broken = true
			}
		}()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	case ctx.Done() != nil:
		stop := context.AfterFunc(ctx, c.conn.poke)
		defer func() {
			if !stop() {
				c.broken = true
			}
		}()
	}
	start := time.Now()
	c.conn.wbuf = req.appendFrame(c.conn.wbuf)
	if err := c.conn.flush(); err != nil {
		c.broken = true
		c.m.transportErrs.Inc()
		return nil, fmt.Errorf("splitrt: send: %w", err)
	}
	resp := response{Logits: req.logitsInto}
	body, err := c.conn.readFrame(maxFrameBody)
	if err == nil {
		err = decodeResponse(body, &resp, &c.conn.dec)
	}
	if err != nil {
		c.broken = true
		c.m.transportErrs.Inc()
		return nil, fmt.Errorf("splitrt: recv: %w", err)
	}
	c.m.rtt.Observe(time.Since(start).Seconds())
	if resp.ID != req.ID {
		// The stream is desynchronized (e.g. a stale response from before a
		// timeout); the connection cannot be trusted for further requests.
		c.broken = true
		c.m.transportErrs.Inc()
		return nil, fmt.Errorf("splitrt: response id %d for request %d", resp.ID, req.ID)
	}
	if resp.Err != "" {
		// Count every remote failure by kind — retries of the transient kinds
		// show up as repeated increments, which is exactly what makes a retry
		// storm visible on the dashboard.
		c.m.errs[kindIndex(resp.Kind)].Inc()
		return nil, &RemoteError{Kind: resp.Kind, Msg: resp.Err}
	}
	return resp.Logits, nil
}

// sleepBackoff waits the jittered exponential-backoff step for the n-th
// retry (n ≥ 1) of the current call, honouring the context.
func (c *EdgeClient) sleepBackoff(ctx context.Context, n int) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(redialDelay(c.redialBase, c.redialMax, n, jitter())):
		return nil
	}
}

// Classify returns the predicted class per sample of a batch.
func (c *EdgeClient) Classify(x *tensor.Tensor) ([]int, error) {
	logits, err := c.Infer(x)
	if err != nil {
		return nil, err
	}
	out := make([]int, logits.Dim(0))
	for i := range out {
		out[i] = logits.Slice(i).Argmax()
	}
	return out, nil
}

// Close terminates the connection.
func (c *EdgeClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}
