package splitrt

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"shredder/internal/audit"
	"shredder/internal/core"
	"shredder/internal/obs"
)

// Gateway fronts a Pool with the splitrt wire protocol: edge devices speak
// to it exactly as they would to a single CloudServer, and the gateway
// relays each request through the pool — balancing, rerouting, hedging,
// and health handling included — checked from its header and handed on as
// decoded: a packed payload reaches the backend as the bytes the edge sent.
// Those were noised on the original edge device (the gateway's pool carries
// no collection of its own when used this way), so the privacy boundary
// stays at the device.
//
// With WithGatewayDebugServer the gateway's debug endpoint re-exports a
// merged /debug/metrics: its own registry (gateway.* plus the pool's
// pool.* series when they share a registry) with every configured backend
// source folded in under "<label>." prefixes.
type Gateway struct {
	pool *Pool

	reg          *obs.Registry
	debugAddr    string
	sources      []obs.SnapshotSource
	auditSources []audit.Source
	eventSources []obs.EventSource
	idleTimeout  time.Duration
	callTimeout  time.Duration

	windowOpts *obs.WindowOptions
	sloIvl     time.Duration
	sloObjs    []obs.Objective
	windows    *obs.Windows
	slo        *obs.SLO
	sloErr     error  // deferred to Serve so construction stays infallible
	stopObs    func() // stops the window/SLO ticker, set by Serve

	states stateList // request states not in use (state.go)

	mu       sync.Mutex // guards listener, conns, closed, debug
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	debug    *obs.DebugServer
	wg       sync.WaitGroup

	requests *obs.Counter
	failures *obs.Counter
	invivo   *obs.Histogram // fleet-wide view of relayed in-vivo 1/SNR
	invivoG  *obs.Gauge
}

// GatewayOption configures a Gateway.
type GatewayOption func(*Gateway)

// WithGatewayMetrics registers gateway.requests and gateway.errors in the
// given registry. Pass the pool's registry to get one snapshot covering
// the gateway and the whole fleet.
func WithGatewayMetrics(reg *obs.Registry) GatewayOption {
	return func(g *Gateway) { g.reg = reg }
}

// WithGatewayDebugServer serves the obs debug endpoint on addr for the
// gateway's registry, with every source from WithBackendSources merged in.
func WithGatewayDebugServer(addr string) GatewayOption {
	return func(g *Gateway) { g.debugAddr = addr }
}

// WithBackendSources adds labelled metric feeds (typically
// obs.HTTPSnapshotSource pulls of each backend's /debug/metrics) to the
// gateway's merged debug snapshot.
func WithBackendSources(sources ...obs.SnapshotSource) GatewayOption {
	return func(g *Gateway) { g.sources = append(g.sources, sources...) }
}

// WithBackendAuditSources adds audit-evidence feeds (typically one
// audit.HTTPSource per backend's /debug/audit) to the gateway's debug
// surface: /debug/audit on the gateway fans proof-by-trace lookups out
// across the fleet and serves the union of every backend's anchored
// roots — the audit-ledger analogue of the metrics merge above. A
// client that only ever spoke to the gateway can verify its inclusion
// proof without knowing which backend served it.
func WithBackendAuditSources(sources ...audit.Source) GatewayOption {
	return func(g *Gateway) { g.auditSources = append(g.auditSources, sources...) }
}

// WithBackendEventSources adds labelled event feeds (typically one
// obs.HTTPEventSource per backend's /debug/events) to the gateway's
// /debug/events endpoint, which then serves the union of its own SLO
// transitions and every backend's — each event stamped with its source
// label, and a dead backend surfacing as a synthetic "event-source"
// firing event rather than silently vanishing from the stream.
func WithBackendEventSources(sources ...obs.EventSource) GatewayOption {
	return func(g *Gateway) { g.eventSources = append(g.eventSources, sources...) }
}

// WithGatewayWindows attaches sliding-window aggregation to the gateway's
// registry — the gateway-side twin of the server's WithWindows. The
// windowed series cover the gateway's own metrics (gateway.*, pool.*, and
// the relayed privacy.invivo histogram), giving fleet-level rolling rates
// and quantiles even when backends export nothing.
func WithGatewayWindows(opt obs.WindowOptions) GatewayOption {
	return func(g *Gateway) { g.windowOpts = &opt }
}

// WithGatewaySLO attaches an objective engine over the gateway's sliding
// window, evaluated every interval (0 = the window's bucket duration) —
// the gateway-side twin of the server's WithSLO. A privacy objective here
// watches the whole fleet's relayed in-vivo 1/SNR, since every request
// the gateway relays contributes its audit note to the gateway's own
// privacy.invivo histogram. Invalid objectives surface from Serve.
func WithGatewaySLO(interval time.Duration, objectives ...obs.Objective) GatewayOption {
	return func(g *Gateway) {
		g.sloIvl = interval
		g.sloObjs = append(g.sloObjs, objectives...)
	}
}

// WithGatewayIdleTimeout closes a client connection when no request
// arrives within d (0 = wait forever).
func WithGatewayIdleTimeout(d time.Duration) GatewayOption {
	return func(g *Gateway) { g.idleTimeout = d }
}

// WithGatewayCallTimeout bounds each relayed pool call by d (0 = no bound
// beyond what the edge client's own context carries).
func WithGatewayCallTimeout(d time.Duration) GatewayOption {
	return func(g *Gateway) { g.callTimeout = d }
}

// NewGateway wraps a pool in a protocol front end. The gateway does not
// own the pool: Close stops serving but leaves the pool for its creator to
// close (or hand to another gateway).
func NewGateway(pool *Pool, opts ...GatewayOption) *Gateway {
	g := &Gateway{pool: pool, conns: map[net.Conn]struct{}{}}
	g.states.handle = g.handle
	for _, o := range opts {
		o(g)
	}
	if g.reg == nil {
		g.reg = pool.Registry()
	}
	g.requests = g.reg.Counter("gateway.requests")
	g.failures = g.reg.Counter("gateway.errors")
	g.invivo = g.reg.Histogram(core.MetricInVivo, core.DefPrivacyBuckets...)
	g.invivoG = g.reg.Gauge(core.MetricInVivoLast)
	if g.windowOpts != nil || len(g.sloObjs) > 0 {
		if g.windowOpts == nil {
			g.windowOpts = &obs.WindowOptions{}
		}
		g.windows = obs.NewWindows(g.reg, *g.windowOpts)
		if len(g.sloObjs) > 0 {
			g.slo, g.sloErr = obs.NewSLO(g.windows, nil, g.sloObjs...)
		}
	}
	return g
}

// Registry returns the gateway's metrics registry.
func (g *Gateway) Registry() *obs.Registry { return g.reg }

// Windows returns the gateway's sliding-window aggregator, or nil when
// WithGatewayWindows (or WithGatewaySLO) is not configured.
func (g *Gateway) Windows() *obs.Windows { return g.windows }

// SLO returns the gateway's objective engine, or nil when WithGatewaySLO
// is not configured.
func (g *Gateway) SLO() *obs.SLO { return g.slo }

// DebugAddr returns the bound debug endpoint address, or "" when none is
// serving.
func (g *Gateway) DebugAddr() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.debug == nil {
		return ""
	}
	return g.debug.Addr
}

// Serve starts listening on addr (e.g. ":9000") and returns the bound
// address. Connections are served on background goroutines until Close.
func (g *Gateway) Serve(addr string) (string, error) {
	if g.sloErr != nil {
		return "", fmt.Errorf("splitrt: %w", g.sloErr)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("splitrt: gateway listen: %w", err)
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		ln.Close()
		return "", errors.New("splitrt: gateway is closed")
	}
	g.listener = ln
	startDebug := g.debugAddr != "" && g.debug == nil
	g.mu.Unlock()
	if startDebug {
		dbg := obs.Debug{
			Metrics: g.reg, Sources: g.sources,
			Windows: g.windows, Events: g.slo.Events(),
			EventSources: g.eventSources,
		}
		if len(g.auditSources) > 0 {
			dbg.Extra = map[string]http.Handler{
				"/debug/audit": audit.Handler(g.auditSources...),
			}
		}
		d, err := dbg.Serve(g.debugAddr)
		if err != nil {
			g.mu.Lock()
			g.listener = nil
			g.mu.Unlock()
			ln.Close()
			return "", fmt.Errorf("splitrt: gateway debug listen: %w", err)
		}
		g.mu.Lock()
		g.debug = d
		g.mu.Unlock()
	}
	g.mu.Lock()
	if g.stopObs == nil {
		switch {
		case g.slo != nil:
			g.stopObs = g.slo.Start(g.sloIvl)
		case g.windows != nil:
			g.stopObs = g.windows.Start()
		}
	}
	g.mu.Unlock()
	g.wg.Add(1)
	go g.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (g *Gateway) acceptLoop(ln net.Listener) {
	defer g.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			conn.Close()
			return
		}
		g.conns[conn] = struct{}{}
		g.wg.Add(1)
		g.mu.Unlock()
		go g.serveConn(conn)
	}
}

// serveConn speaks the splitrt protocol: handshake, then a pipelined
// request loop — every request relays through the pool on its own
// goroutine, so one slow backend call never blocks the connection's other
// requests (the pool is a concurrent fan-out, unlike a single client's
// lockstep exchange).
func (g *Gateway) serveConn(conn net.Conn) {
	defer g.wg.Done()
	defer func() {
		conn.Close()
		g.mu.Lock()
		delete(g.conns, conn)
		g.mu.Unlock()
	}()
	serveFrames(&frameConn{conn: conn, idleTimeout: g.idleTimeout},
		"gateway", hello{Network: g.pool.Split().Net.Name(), CutLayer: g.pool.CutLayer()}, true, &g.states)
}

// handle relays the request in st through the pool and leaves the response
// there, translating pool-level failures into wire kinds: a backend's own
// typed error passes through verbatim, while fleet-level exhaustion (no
// backend available, pool closed, transport budget spent) maps to the
// retryable shutdown kind so edge clients with WithReconnect resend rather
// than give up.
func (g *Gateway) handle(ctx context.Context, st *reqState) {
	req, resp := &st.req, &st.resp
	g.requests.Inc()
	recv := time.Now()
	*resp = response{ID: req.ID, Trace: req.Trace}
	if _, kind, msg := checkRequest(g.pool.Split(), req); kind != ErrUnknown {
		g.failures.Inc()
		resp.Err, resp.Kind = msg, kind
		return
	}
	if g.callTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, g.callTimeout)
		defer cancel()
	}
	if g.pool.hedges() {
		// The losing attempt of a hedged call may still be sending the
		// payload when the winner has returned: the state is not reused, and
		// no two attempts share a destination for the logits.
		st.forfeit = true
	} else {
		req.logitsInto = st.logits
	}
	// The request carries the edge's trace and audit note to whichever
	// backend serves it: the record there is found by the edge's own trace.
	logits, err := g.pool.relay(ctx, *req)
	if err != nil {
		g.failures.Inc()
		resp.Err, resp.Kind = err.Error(), classifyPoolErr(err)
		return
	}
	st.logits, resp.Logits = logits, logits
	resp.SrvRecvUnixNanos = recv.UnixNano()
	resp.SrvElapsedNs = int64(time.Since(recv))
	if n := req.Audit; n != nil && n.Sampled {
		// Every relayed request's sampled in-vivo 1/SNR lands in the
		// gateway's own privacy histogram, so a fleet-level privacy SLO
		// needs no backend scraping.
		g.invivo.Observe(n.InVivo)
		g.invivoG.Set(n.InVivo)
	}
}

// classifyPoolErr maps a pool failure to its wire kind for the edge client.
func classifyPoolErr(err error) ErrKind {
	var rerr *RemoteError
	switch {
	case errors.As(err, &rerr):
		return rerr.Kind
	case errors.Is(err, context.DeadlineExceeded):
		return ErrTimeout
	default:
		// ErrNoBackends, ErrPoolClosed, cancellation during gateway
		// shutdown, reroute-budget exhaustion: all transient fleet states.
		return ErrShutdown
	}
}

// Close stops the listener and debug endpoint, closes live connections,
// and waits for serving goroutines. The pool is left open. Idempotent.
func (g *Gateway) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	ln := g.listener
	g.listener = nil
	debug := g.debug
	g.debug = nil
	stopObs := g.stopObs
	g.stopObs = nil
	conns := make([]net.Conn, 0, len(g.conns))
	for c := range g.conns {
		conns = append(conns, c)
	}
	g.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	if stopObs != nil {
		stopObs()
	}
	debug.Close()
	for _, c := range conns {
		c.Close()
	}
	g.wg.Wait()
	return nil
}
