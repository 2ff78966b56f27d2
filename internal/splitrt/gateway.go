package splitrt

import (
	"context"
	"errors"
	"fmt"
	"strings"
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
// With WithDebugServer its debug endpoint serves its own registry (gateway.*
// plus the pool's pool.* series when they share one), and with WithBackends
// the whole fleet's metrics, events and audit proofs.
type Gateway struct {
	endpoint // listener, connections, debug server, window/SLO: shared with CloudServer

	pool *Pool

	reg         *obs.Registry
	backends    []string // WithBackends: one debug base URL per pool backend
	labels      []string // "backend.<addr>" of each, by the pool's address order
	callTimeout time.Duration

	requests *obs.Counter
	failures *obs.Counter
	invivo   *obs.Histogram // fleet-wide view of relayed in-vivo 1/SNR
	invivoG  *obs.Gauge
}

// GatewayOption configures a Gateway. The options of the front end it shares
// with the CloudServer (FrontOption: WithIdleTimeout, WithDebugServer,
// WithWindows, WithSLO) and WithMetrics are GatewayOptions too.
type GatewayOption interface{ applyGateway(*Gateway) }

type gatewayOption func(*Gateway)

func (f gatewayOption) applyGateway(g *Gateway) { f(g) }

// WithBackends gives the gateway the debug endpoint of every backend — one
// base URL ("http://host:port") per pool backend, in the pool's address
// order — and makes its own debug endpoint (WithDebugServer) the fleet's.
// Each backend is labelled "backend.<addr>" by its pool address on all three
// surfaces, each pulled from the route of the same name under its base:
//
//   - /debug/metrics folds in every backend's snapshot under its label;
//   - /debug/events serves the union of the gateway's own SLO transitions
//     and every backend's, each event stamped with its source label, a dead
//     backend surfacing as a synthetic "event-source" firing event rather
//     than silently vanishing from the stream;
//   - /debug/audit fans proof-by-trace lookups out across the fleet and
//     serves the union of every backend's anchored roots: a client that only
//     ever spoke to the gateway can verify its inclusion proof without
//     knowing which backend served it.
//
// A list that is not one base per backend surfaces as an error from Serve.
func WithBackends(bases ...string) GatewayOption {
	return gatewayOption(func(g *Gateway) { g.backends = append(g.backends, bases...) })
}

// WithGatewayCallTimeout bounds each relayed pool call by d (0 = no bound
// beyond what the edge client's own context carries).
func WithGatewayCallTimeout(d time.Duration) GatewayOption {
	return gatewayOption(func(g *Gateway) { g.callTimeout = d })
}

// NewGateway wraps a pool in a protocol front end. The gateway does not
// own the pool: Close stops the listener and debug endpoint, closes live
// connections and waits for their serving goroutines, but leaves the pool for
// its creator to close (or hand to another gateway).
func NewGateway(pool *Pool, opts ...GatewayOption) *Gateway {
	// Every request relays through the pool on its own goroutine, so one slow
	// backend call never blocks the connection's other requests (the pool is a
	// concurrent fan-out, unlike a single client's lockstep exchange).
	g := &Gateway{pool: pool, endpoint: endpoint{role: "gateway", pipelined: true,
		serves: hello{Network: pool.edge.Split.Net.Name(), CutLayer: pool.cutLayer}}}
	g.states.handle, g.debugSurface = g.handle, g.surface
	for _, o := range opts {
		o.applyGateway(g)
	}
	if g.reg == nil {
		g.reg = pool.reg // WithMetrics: one snapshot covers gateway and fleet
	}
	g.requests = g.reg.Counter("gateway.requests")
	g.failures = g.reg.Counter("gateway.errors")
	g.invivo = g.reg.Histogram(core.MetricInVivo, core.DefPrivacyBuckets...)
	g.invivoG = g.reg.Gauge(core.MetricInVivoLast)
	g.observe(g.reg)
	if fleet := pool.Stats().Backends; len(g.backends) == len(fleet) {
		for _, b := range fleet {
			g.labels = append(g.labels, "backend."+b.Addr)
		}
	} else if len(g.backends) > 0 {
		g.fail(fmt.Errorf("splitrt: gateway: %d backend debug URLs for %d backends", len(g.backends), len(fleet)))
	}
	return g
}

// surface is what the gateway's debug endpoint shows: its own registry,
// window and events, and every backend of WithBackends fanned out under the
// label of its pool address.
func (g *Gateway) surface() obs.Debug {
	dbg := obs.Debug{Metrics: g.reg, Windows: g.windows, Events: g.slo.Events()}
	var proofs []audit.Source
	for i, label := range g.labels {
		base := strings.TrimRight(g.backends[i], "/")
		dbg.Sources = append(dbg.Sources, obs.HTTPSource[obs.Snapshot](label, base+"/debug/metrics"))
		dbg.EventSources = append(dbg.EventSources, obs.HTTPSource[[]obs.Event](label, base+"/debug/events"))
		proofs = append(proofs, audit.HTTPSource{Name: label, Base: base + "/debug/audit"})
	}
	if len(proofs) > 0 {
		dbg.Audit = audit.Handler(proofs...)
	}
	return dbg
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
		// One attempt at a time, under this connection's context: the
		// backend's logits land in the state's tensor, and the state's watch
		// is how the end of this connection interrupts the call.
		req.logitsInto, req.watch = st.logits, &st.watch
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
