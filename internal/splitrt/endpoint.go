package splitrt

import (
	"fmt"
	"net"
	"sync"
	"time"

	"shredder/internal/obs"
)

// endpoint is the front end a CloudServer and a Gateway share: the protocol
// listener, the registry of live connections, the debug HTTP server, the
// sliding window and objective engine over the role's registry with their
// ticker, and the one Serve / accept / Close ordering over all of them. Each
// role embeds it — Serve, Close and DebugAddr are the endpoint's — and sets
// what differs: the handle that answers a request, what its debug surface
// shows, and (the server) two steps of Close.
type endpoint struct {
	role      string    // "server" or "gateway", for error text
	serves    hello     // the partition a client must ask for
	pipelined bool      // answer every request of a connection on its own goroutine
	states    stateList // request states not in use (state.go), and the role's handle

	debugSurface func() obs.Debug // what the role's debug endpoint shows
	// The role's own steps of Close, nil for none: drain runs while the
	// connections are still open, released once every serving goroutine has
	// returned.
	drain, released func()

	idleTimeout  time.Duration // WithIdleTimeout
	writeTimeout time.Duration // WithWriteTimeout (server)
	debugAddr    string        // WithDebugServer: "" = no debug HTTP endpoint
	windowed     bool          // WithWindows or WithSLO: sliding-window aggregation
	windowOpts   obs.WindowOptions
	sloIvl       time.Duration // WithSLO: evaluation cadence (0 = window bucket)
	sloObjs      []obs.Objective

	windows *obs.Windows
	slo     *obs.SLO
	err     error // the first construction error, deferred to Serve so construction stays infallible

	// mu guards everything below it. It is held across Serve's two binds,
	// never across an inference or a connection's I/O.
	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	debug    *obs.DebugServer
	stopObs  func() // stops the window/SLO ticker
	wg       sync.WaitGroup
}

// FrontOption configures the front end a CloudServer and a Gateway share; it
// is a ServerOption and a GatewayOption.
type FrontOption interface {
	ServerOption
	GatewayOption
}

type frontOption func(*endpoint)

func (f frontOption) applyServer(s *CloudServer) { f(&s.endpoint) }
func (f frontOption) applyGateway(g *Gateway)    { f(&g.endpoint) }

// WithIdleTimeout closes a connection when no request arrives within d
// (0 = wait forever). It bounds how long a stalled or dead peer can hold a
// connection slot.
func WithIdleTimeout(d time.Duration) FrontOption {
	return frontOption(func(e *endpoint) { e.idleTimeout = d })
}

// WithDebugServer serves the obs debug endpoint (/debug/metrics,
// /debug/spans, /debug/profile, /debug/events, /debug/pprof; /debug/audit
// with an audit trail) on its own HTTP listener at addr, started by Serve and
// stopped by Close. On a server it implies WithObservability when no registry
// was attached yet; a gateway serves its own registry (gateway.* plus the
// pool's pool.* series when they share one) with every backend of
// WithBackends folded in. Use DebugAddr to learn the bound address (handy
// with ":0").
func WithDebugServer(addr string) FrontOption {
	return frontOption(func(e *endpoint) { e.debugAddr = addr })
}

// WithWindows attaches sliding-window aggregation to the role's registry:
// /debug/metrics payloads gain a "window" field with per-window counter rates
// and histogram p50/p95/p99, and Serve starts a background ticker that ages
// old observations out on the bucket cadence (the zero WindowOptions means 12
// buckets of 5s — a one-minute window). On a server it implies
// WithObservability when none was configured; a gateway's windowed series
// cover its own metrics (gateway.*, pool.*, and the relayed privacy.invivo
// histogram), giving fleet-level rolling rates and quantiles even when
// backends export nothing. Windowing adds no instrumentation to the serving
// hot path — aggregates are derived from the cumulative registry at snapshot
// boundaries.
func WithWindows(opt obs.WindowOptions) FrontOption {
	return frontOption(func(e *endpoint) { e.windowOpts, e.windowed = opt, true })
}

// WithSLO attaches a service-level-objective engine evaluating the given
// objectives against the role's sliding window every interval (0 = the
// window's bucket duration), emitting firing/resolved events into the ring
// served at /debug/events and mirroring live state as slo.* metrics. It
// implies WithWindows when none was configured. Invalid objectives surface as
// an error from Serve.
//
// The canonical privacy objective watches the realized noise level — the
// in-vivo 1/SNR telemetry-enabled edge clients relay in their audit notes,
// which a server records for the requests it serves and a gateway for every
// request it relays, so a fleet-level privacy SLO needs no backend scraping:
//
//	obs.Objective{
//		Name:      "privacy.invivo",
//		Metric:    core.MetricInVivo,
//		Aggregate: obs.AggMean,
//		Op:        obs.OpAtLeast,
//		Target:    bench.PrivacyTarget,
//		MinCount:  8,
//	}
func WithSLO(interval time.Duration, objectives ...obs.Objective) FrontOption {
	return frontOption(func(e *endpoint) {
		e.sloIvl, e.windowed = interval, e.windowed || len(objectives) > 0
		e.sloObjs = append(e.sloObjs, objectives...)
	})
}

// fail records a construction error for Serve to return; the first one wins.
func (e *endpoint) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// observe builds the window and the objective engine over reg, when asked for.
func (e *endpoint) observe(reg *obs.Registry) {
	if !e.windowed {
		return
	}
	e.windows = obs.NewWindows(reg, e.windowOpts)
	if len(e.sloObjs) > 0 {
		var err error
		if e.slo, err = obs.NewSLO(e.windows, nil, e.sloObjs...); err != nil {
			e.fail(fmt.Errorf("splitrt: %w", err))
		}
	}
}

// DebugAddr returns the bound address of the debug HTTP endpoint, or ""
// when WithDebugServer was not configured or Serve has not started it yet.
func (e *endpoint) DebugAddr() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.debug == nil {
		return ""
	}
	return e.debug.Addr
}

// Serve starts listening on addr (e.g. "127.0.0.1:0") and returns the bound
// address: it brings up the debug surface and the window/SLO ticker and
// speaks the splitrt protocol (serveFrames) on every accepted connection, each
// on its own goroutine, until Close. A construction error — a network the
// compiler cannot lower, an invalid objective, a backend list of the wrong
// length — surfaces here. An endpoint serves once: a second call while the
// first listener is up would orphan it, and is refused like a call after
// Close. Whatever fails, nothing stays bound.
func (e *endpoint) Serve(addr string) (string, error) {
	if e.err != nil {
		return "", e.err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case e.closed:
		return "", fmt.Errorf("splitrt: %s is closed", e.role)
	case e.listener != nil:
		return "", fmt.Errorf("splitrt: %s is already serving on %s", e.role, e.listener.Addr())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("splitrt: %s listen: %w", e.role, err)
	}
	if e.debugAddr != "" {
		if e.debug, err = e.debugSurface().Serve(e.debugAddr); err != nil {
			ln.Close()
			return "", fmt.Errorf("splitrt: %s debug listen: %w", e.role, err)
		}
	}
	e.listener, e.conns = ln, map[net.Conn]struct{}{}
	// The SLO ticker advances the window as part of each evaluation, so
	// one background goroutine keeps both fresh; without objectives the
	// window runs its own ticker on the bucket cadence.
	switch {
	case e.slo != nil:
		e.stopObs = e.slo.Start(e.sloIvl)
	case e.windows != nil:
		e.stopObs = e.windows.Start()
	}
	e.wg.Add(1)
	go e.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (e *endpoint) acceptLoop(ln net.Listener) {
	defer e.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		// Register under the lock BEFORE serving so Close, which flips
		// closed and then snapshots conns under the same lock, either sees
		// this conn (and closes it) or has already flipped closed (and we
		// drop it here). No conn can slip in after Close's snapshot.
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			conn.Close()
			return
		}
		e.conns[conn] = struct{}{}
		e.wg.Add(1)
		e.mu.Unlock()
		go e.serveConn(conn)
	}
}

// serveConn serves one registered connection and forgets it.
func (e *endpoint) serveConn(conn net.Conn) {
	defer e.wg.Done()
	serveFrames(&frameConn{conn: conn, idleTimeout: e.idleTimeout, writeTimeout: e.writeTimeout},
		e.role, e.serves, e.pipelined, &e.states)
	conn.Close()
	e.mu.Lock()
	delete(e.conns, conn)
	e.mu.Unlock()
}

// Close stops the listener, the ticker and the debug server, runs the role's
// drain while the connections are still open, closes them, waits for their
// serving goroutines and then runs the role's released. It is idempotent:
// closing a closed endpoint is a no-op returning nil, at once.
func (e *endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	ln, debug, stopObs := e.listener, e.debug, e.stopObs
	e.listener, e.debug, e.stopObs = nil, nil, nil
	conns := make([]net.Conn, 0, len(e.conns))
	for c := range e.conns {
		conns = append(conns, c)
	}
	e.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	if stopObs != nil {
		stopObs()
	}
	debug.Close()
	if e.drain != nil {
		e.drain()
	}
	for _, c := range conns {
		c.Close()
	}
	e.wg.Wait()
	if e.released != nil {
		e.released()
	}
	return nil
}
