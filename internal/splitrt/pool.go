package splitrt

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"shredder/internal/core"
	"shredder/internal/obs"
	"shredder/internal/sched"
	"shredder/internal/tensor"
)

// Pool is the fleet layer of split inference: one client-side handle over N
// cloud backends all serving the same model partition (network + cut
// layer). It owns an EdgeClient per backend and layers on what a single
// client cannot provide:
//
//   - balancing: a pluggable Balancer (round-robin, least-inflight,
//     consistent rendezvous routing) spreads requests over the healthy set;
//   - failure handling: consecutive backend failures eject a backend, a
//     background health loop redials ejected backends and readmits them
//     through a half-open single-trial probe, and a failed call reroutes to
//     another backend — a CloudServer.Close mid-flight (the retryable
//     shutdown kind) is absorbed by rerouting instead of surfacing;
//   - hedging: when a call outlives a latency budget derived from the live
//     per-backend RTT histograms, a duplicate fires at a second backend and
//     the first response wins (the loser is cancelled);
//   - graceful drain: Drain(addr) generalizes the sched.Close contract to
//     one backend — in-flight calls finish, new calls reroute — and Close
//     drains the whole pool.
//
// Like EdgeClient, the pool runs its core.Edge over each request before
// anything leaves the process, so no backend ever sees a raw activation
// regardless of routing, rerouting, or hedging, and the request carries the
// edge's attribution to the backend's audit ledger.
//
// All methods are safe for concurrent use.
type Pool struct {
	edge     *core.Edge // L, the noise and its monitor: the step before routing
	cutLayer string
	key      string // routing key: network "/" cut layer

	seed       int64
	reg        *obs.Registry
	balancer   Balancer
	hedgeQ     float64       // quantile for the hedge budget; 0 = hedging off
	hedgeMin   time.Duration // floor for the hedge budget
	ejectAfter int64         // consecutive eject-worthy failures before ejection
	healthIvl  time.Duration
	clientOpts []ClientOption

	gate sched.Gate // pool-wide admission; Close drains it

	bmu      sync.RWMutex
	backends []*poolBackend

	healthStop chan struct{}
	healthDone chan struct{}
	closeOnce  sync.Once

	m poolMetrics
}

// poolMetrics are the pool-level counters; per-backend metrics live on each
// poolBackend under "pool.backend.<addr>." names in the same registry.
type poolMetrics struct {
	requests  *obs.Counter // pool.requests: calls admitted
	reroutes  *obs.Counter // pool.reroutes: failovers to another backend
	hedges    *obs.Counter // pool.hedges: duplicate attempts fired
	hedgeWins *obs.Counter // pool.hedge_wins: duplicates that answered first
	ejections *obs.Counter // pool.ejections: backends removed from rotation
	readmits  *obs.Counter // pool.readmits: half-open probes that succeeded
}

// BackendState is the health-machine position of one pool backend.
type BackendState int32

const (
	// BackendHealthy backends are in the balancer's rotation.
	BackendHealthy BackendState = iota
	// BackendEjected backends took too many consecutive failures and are
	// out of rotation until the health loop re-establishes a connection.
	BackendEjected
	// BackendHalfOpen backends have a fresh connection and admit exactly
	// one trial request: success readmits, failure re-ejects.
	BackendHalfOpen
	// BackendDraining backends are being removed: in-flight calls finish,
	// new calls reroute.
	BackendDraining
)

// String names the state for stats and debug output.
func (s BackendState) String() string {
	switch s {
	case BackendHealthy:
		return "healthy"
	case BackendEjected:
		return "ejected"
	case BackendHalfOpen:
		return "half-open"
	case BackendDraining:
		return "draining"
	}
	return "unknown"
}

type poolBackend struct {
	addr  string
	state atomic.Int32
	trial atomic.Bool // half-open: latched by the single probe in flight

	inflight atomic.Int64
	fails    atomic.Int64 // consecutive eject-worthy failures

	gate sched.Gate // per-backend drain

	mu     sync.Mutex // guards client swap (health loop vs calls)
	client *EdgeClient

	requests   *obs.Counter
	errors     *obs.Counter
	rtt        *obs.Histogram
	stateGauge *obs.Gauge
}

func (b *poolBackend) getState() BackendState { return BackendState(b.state.Load()) }

func (b *poolBackend) setState(s BackendState) {
	b.state.Store(int32(s))
	b.stateGauge.Set(float64(s))
}

// PoolOption configures a Pool at NewPool time; WithMetrics is one too.
type PoolOption interface{ applyPool(*Pool) }

type poolOption func(*Pool)

func (f poolOption) applyPool(p *Pool) { f(p) }

// WithBalancer installs the balancing policy (default: round-robin).
func WithBalancer(b Balancer) PoolOption {
	return poolOption(func(p *Pool) {
		if b != nil {
			p.balancer = b
		}
	})
}

// WithHedging arms hedged requests: when a call exceeds the q-quantile of
// the fastest healthy backend's live RTT histogram (but at least min, to
// keep cold histograms from hedging everything), a duplicate is sent to a
// different backend and the first response wins. q of 0 disables hedging;
// min of 0 keeps the 1ms default floor. Taking the *minimum* over healthy
// backends' quantiles matters: a budget from pooled latencies would drift
// up toward the slowest backend and never fire against it.
func WithHedging(q float64, min time.Duration) PoolOption {
	return poolOption(func(p *Pool) {
		p.hedgeQ = q
		if min > 0 {
			p.hedgeMin = min
		}
	})
}

// WithEjectAfter sets how many consecutive eject-worthy failures (transport
// breaks, shutdowns, handler timeouts) remove a backend from rotation
// (default 3, minimum 1).
func WithEjectAfter(n int) PoolOption {
	return poolOption(func(p *Pool) {
		if n >= 1 {
			p.ejectAfter = int64(n)
		}
	})
}

// WithHealthInterval sets how often the background loop redials ejected
// backends (default 1s; 0 keeps the default).
func WithHealthInterval(d time.Duration) PoolOption {
	return poolOption(func(p *Pool) {
		if d > 0 {
			p.healthIvl = d
		}
	})
}

// WithPoolClientOptions forwards extra ClientOptions to every backend's
// EdgeClient (e.g. WithTimeout, SetWireQuantization is per-client). The
// pool always dials backends with a nil noise collection — noise is the
// pool's job, applied once before routing — and a small reconnect budget.
func WithPoolClientOptions(opts ...ClientOption) PoolOption {
	return poolOption(func(p *Pool) { p.clientOpts = append(p.clientOpts, opts...) })
}

// ErrNoBackends is returned when every backend is out of rotation (and any
// per-call failures have already been folded into the message). It is a
// retryable condition: backends may be readmitted by the health loop.
var ErrNoBackends = errors.New("splitrt: pool: no backend available")

// ErrPoolClosed is returned by calls admitted after Close began.
var ErrPoolClosed = errors.New("splitrt: pool: closed")

// errBackendDraining is the internal reroute signal for a backend whose
// gate refused admission between pick and call.
var errBackendDraining = errors.New("splitrt: pool: backend draining")

// NewPool dials every addr and assembles the fleet handle. Backends that
// fail to dial start in the ejected state and are retried by the health
// loop; NewPool fails only when no backend at all is reachable. The seed
// derives both the pool's noise draws and per-backend client seeds.
func NewPool(split *core.Split, cutLayer string, src core.NoiseSource, seed int64, addrs []string, opts ...PoolOption) (*Pool, error) {
	if len(addrs) == 0 {
		return nil, errors.New("splitrt: pool: no backend addresses")
	}
	p := &Pool{
		edge: core.NewEdge(split, src, seed), cutLayer: cutLayer,
		key:  split.Net.Name() + "/" + cutLayer,
		seed: seed, balancer: NewRoundRobin(),
		hedgeMin: time.Millisecond, ejectAfter: 3, healthIvl: time.Second,
		healthStop: make(chan struct{}), healthDone: make(chan struct{}),
	}
	for _, o := range opts {
		o.applyPool(p)
	}
	if p.reg == nil {
		p.reg = obs.NewRegistry()
	}
	p.m = poolMetrics{
		requests:  p.reg.Counter("pool.requests"),
		reroutes:  p.reg.Counter("pool.reroutes"),
		hedges:    p.reg.Counter("pool.hedges"),
		hedgeWins: p.reg.Counter("pool.hedge_wins"),
		ejections: p.reg.Counter("pool.ejections"),
		readmits:  p.reg.Counter("pool.readmits"),
	}
	healthy := 0
	for i, addr := range addrs {
		b := &poolBackend{
			addr:       addr,
			requests:   p.reg.Counter("pool.backend." + addr + ".requests"),
			errors:     p.reg.Counter("pool.backend." + addr + ".errors"),
			rtt:        p.reg.Histogram("pool.backend."+addr+".rtt_seconds", obs.DefLatencyBuckets...),
			stateGauge: p.reg.Gauge("pool.backend." + addr + ".state"),
		}
		client, err := p.dialBackend(addr, p.seed+int64(i)*101+1)
		if err == nil {
			b.client = client
			b.setState(BackendHealthy)
			healthy++
		} else {
			b.setState(BackendEjected)
		}
		p.backends = append(p.backends, b)
	}
	if healthy == 0 {
		return nil, fmt.Errorf("splitrt: pool: no backend reachable (tried %d)", len(addrs))
	}
	go p.healthLoop()
	return p, nil
}

// dialBackend builds one backend client: no noise collection (the pool
// noises activations before routing), a small reconnect budget so a blip
// does not immediately cost an ejection, then the caller's extra options.
func (p *Pool) dialBackend(addr string, seed int64) (*EdgeClient, error) {
	opts := append([]ClientOption{WithReconnect(2, 25*time.Millisecond)}, p.clientOpts...)
	return Dial(addr, p.edge.Split, p.cutLayer, nil, seed, opts...)
}

// Infer runs split inference on a batch [N, ...] through the fleet.
func (p *Pool) Infer(x *tensor.Tensor) (*tensor.Tensor, error) {
	return p.InferContext(context.Background(), x)
}

// InferContext runs the edge step — the local part, then noise when the pool
// holds a source — and routes the protected activation, with its attribution,
// through the fleet with balancing, rerouting, and hedging.
func (p *Pool) InferContext(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	a, at := p.edge.Step(nil, x)
	req := request{Activation: a}
	if at.Mode != "" {
		req.Audit = &at
	}
	return p.relay(ctx, req)
}

// InferActivation routes an already-prepared cut-layer activation through
// the fleet, for activations that were noised elsewhere.
func (p *Pool) InferActivation(ctx context.Context, a *tensor.Tensor) (*tensor.Tensor, error) {
	return p.relay(ctx, request{Activation: a})
}

// relay routes one request through the fleet with balancing, rerouting and
// hedging. The gateway hands over the request it decoded: payload (dense or
// still packed), trace and audit note reach the backend as the edge sent them.
func (p *Pool) relay(ctx context.Context, req request) (*tensor.Tensor, error) {
	if !p.gate.Enter() {
		return nil, ErrPoolClosed
	}
	defer p.gate.Leave()
	p.m.requests.Inc()

	var tried []*poolBackend // backends this call has failed on: nothing until the first failure
	var lastErr error
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b := p.pick(tried, nil)
		if b == nil {
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last failure: %v)", ErrNoBackends, lastErr)
			}
			return nil, ErrNoBackends
		}
		out, err := p.callMaybeHedged(ctx, b, req, &tried)
		if err == nil {
			return out, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		tried = append(tried, b)
		if !reroutable(err) {
			return nil, err
		}
		lastErr = err
		p.m.reroutes.Inc()
	}
}

// Classify returns the predicted class per sample of a batch.
func (p *Pool) Classify(x *tensor.Tensor) ([]int, error) {
	logits, err := p.Infer(x)
	if err != nil {
		return nil, err
	}
	out := make([]int, logits.Dim(0))
	for i := range out {
		out[i] = logits.Slice(i).Argmax()
	}
	return out, nil
}

// reroutable reports whether a failure may be absorbed by sending the same
// request to a different backend: transport breaks and the transient remote
// kinds (timeout, shutdown) qualify; a bad request or server-internal error
// would fail identically everywhere and is surfaced instead.
func reroutable(err error) bool {
	var rerr *RemoteError
	if errors.As(err, &rerr) {
		return rerr.Retryable()
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true // transport-level failure, including errBackendDraining
}

// viewsPool keeps a pick's candidate list: choosing a backend allocates nothing.
var viewsPool = sync.Pool{New: func() any { return new([]BackendView) }}

// pick selects the next backend to try, excluding tried ones. A half-open
// backend with an unclaimed trial latch takes priority (that is the only
// path back into rotation); otherwise the balancer chooses among healthy
// candidates. Returns nil when nothing is available. With primary set it
// chooses the backend of a hedge — the duplicate of an attempt in flight at
// primary: never primary itself, and never a half-open trial (a probe slot
// is for deliberate readmission, not speculation).
func (p *Pool) pick(tried []*poolBackend, primary *poolBackend) *poolBackend {
	p.bmu.RLock()
	defer p.bmu.RUnlock()
	if primary == nil {
		for _, b := range p.backends {
			if b.getState() == BackendHalfOpen && !slices.Contains(tried, b) && b.trial.CompareAndSwap(false, true) {
				return b
			}
		}
	}
	kept := viewsPool.Get().(*[]BackendView)
	views := (*kept)[:0]
	defer func() { *kept = views; viewsPool.Put(kept) }()
	for _, b := range p.backends {
		if b != primary && b.getState() == BackendHealthy && !slices.Contains(tried, b) {
			views = append(views, BackendView{Addr: b.addr, Inflight: int(b.inflight.Load()), backend: b})
		}
	}
	if len(views) == 0 {
		return nil
	}
	i := p.balancer.Pick(p.key, views)
	if i < 0 || i >= len(views) {
		i = 0
	}
	return views[i].backend
}

// callOne sends the request to one backend through its drain gate,
// keeping the health machine and per-backend stats honest: successes reset
// the failure streak (and readmit a half-open backend), eject-worthy
// failures advance it, and a context cancellation — the losing half of a
// hedge, or the caller giving up — counts as neither.
func (p *Pool) callOne(ctx context.Context, b *poolBackend, req request) (*tensor.Tensor, error) {
	wasTrial := b.getState() == BackendHalfOpen
	if !b.gate.Enter() {
		if wasTrial {
			b.trial.Store(false)
		}
		return nil, errBackendDraining
	}
	defer b.gate.Leave()
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	b.requests.Inc()

	b.mu.Lock()
	client := b.client
	b.mu.Unlock()
	if client == nil {
		if wasTrial {
			b.trial.Store(false)
		}
		return nil, errBackendDraining
	}

	start := time.Now()
	out, err := client.relay(ctx, req)
	if err == nil {
		b.rtt.Observe(time.Since(start).Seconds())
		p.noteSuccess(b)
		return out, nil
	}
	if ctx.Err() != nil {
		// The caller cancelled (hedge lost, deadline passed upstream): the
		// backend did nothing wrong, so neither its failure streak nor its
		// latency histogram moves.
		if wasTrial {
			b.trial.Store(false)
		}
		return nil, ctx.Err()
	}
	b.errors.Inc()
	p.noteFailure(b, err)
	return nil, err
}

// noteSuccess resets the failure streak and readmits a half-open backend.
func (p *Pool) noteSuccess(b *poolBackend) {
	b.fails.Store(0)
	if b.getState() == BackendHalfOpen {
		b.setState(BackendHealthy)
		b.trial.Store(false)
		p.m.readmits.Inc()
	}
}

// noteFailure advances the health machine for one failed call. Only
// eject-worthy failures count: a bad request or internal error proves the
// backend is alive and answering, so it stays in rotation.
func (p *Pool) noteFailure(b *poolBackend, err error) {
	var rerr *RemoteError
	if errors.As(err, &rerr) && !rerr.Retryable() {
		return
	}
	if b.getState() == BackendHalfOpen {
		// Failed probe: straight back out of rotation.
		b.setState(BackendEjected)
		b.trial.Store(false)
		p.m.ejections.Inc()
		return
	}
	if b.fails.Add(1) >= p.ejectAfter && b.getState() == BackendHealthy {
		b.setState(BackendEjected)
		p.m.ejections.Inc()
	}
}

// hedges reports whether the pool may run two attempts of one call at once.
func (p *Pool) hedges() bool { return p.hedgeQ > 0 }

// hedgeBudget derives the live hedge-fire threshold: the hedgeQ quantile of
// the fastest healthy backend's RTT histogram, floored at hedgeMin. The
// minimum over backends (not a pooled histogram) is what lets the budget
// stay anchored to healthy latency while one backend degrades. Backends
// with fewer than 16 observations are skipped — too cold to trust — and
// with no warm backend at all, hedging stays off (returns 0).
func (p *Pool) hedgeBudget() time.Duration {
	if !p.hedges() {
		return 0
	}
	p.bmu.RLock()
	defer p.bmu.RUnlock()
	var best time.Duration
	for _, b := range p.backends {
		if b.getState() != BackendHealthy || b.rtt.Count() < 16 {
			continue
		}
		q := time.Duration(b.rtt.Quantile(p.hedgeQ) * float64(time.Second))
		if best == 0 || q < best {
			best = q
		}
	}
	if best == 0 {
		return 0
	}
	if best < p.hedgeMin {
		best = p.hedgeMin
	}
	return best
}

// callMaybeHedged runs one attempt against b, firing a duplicate at a
// second backend if the attempt outlives the hedge budget. The first
// response wins; the loser's context is cancelled, which the client
// translates into an interrupted read (and callOne into a no-stats
// cancellation). A failed hedge backend is added to tried so the outer
// reroute loop does not revisit it.
func (p *Pool) callMaybeHedged(ctx context.Context, b *poolBackend, req request, tried *[]*poolBackend) (*tensor.Tensor, error) {
	budget := p.hedgeBudget()
	if budget <= 0 {
		return p.callOne(ctx, b, req)
	}
	// Two attempts may now decode a response each, under a context of their
	// own: neither into a tensor the caller handed over for one, nor under a
	// watch that answers for the caller's context only.
	req.logitsInto, req.watch = nil, nil
	type attempt struct {
		out    *tensor.Tensor
		err    error
		hedged bool
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan attempt, 2) // buffered: the loser must never block
	go func() {
		out, err := p.callOne(cctx, b, req)
		results <- attempt{out, err, false}
	}()
	timer := time.NewTimer(budget)
	defer timer.Stop()

	pending := 1
	var hedge *poolBackend
	var firstErr error
	for {
		select {
		case <-timer.C:
			if hedge != nil {
				continue
			}
			hedge = p.pick(*tried, b)
			if hedge == nil {
				continue // nothing to hedge to; keep waiting on the primary
			}
			pending++
			p.m.hedges.Inc()
			go func() {
				out, err := p.callOne(cctx, hedge, req)
				results <- attempt{out, err, true}
			}()
		case r := <-results:
			pending--
			if r.err == nil {
				if r.hedged {
					p.m.hedgeWins.Inc()
				}
				cancel() // poke the loser off the wire
				return r.out, nil
			}
			if firstErr == nil || !r.hedged {
				// Prefer reporting the primary's failure: the hedge may have
				// died of the shared cancellation.
				firstErr = r.err
			}
			if r.hedged {
				*tried = append(*tried, hedge)
			}
			if pending == 0 {
				return nil, firstErr
			}
		}
	}
}

// healthLoop periodically redials ejected backends. A successful dial and
// handshake promotes the backend to half-open, where its first real request
// decides readmission.
func (p *Pool) healthLoop() {
	defer close(p.healthDone)
	t := time.NewTicker(p.healthIvl)
	defer t.Stop()
	for {
		select {
		case <-p.healthStop:
			return
		case <-t.C:
			p.probeEjected()
		}
	}
}

func (p *Pool) probeEjected() {
	p.bmu.RLock()
	backends := append([]*poolBackend(nil), p.backends...)
	p.bmu.RUnlock()
	for i, b := range backends {
		if b.getState() != BackendEjected {
			continue
		}
		client, err := p.dialBackend(b.addr, p.seed+int64(i)*101+7)
		if err != nil {
			continue
		}
		b.mu.Lock()
		old := b.client
		b.client = client
		b.mu.Unlock()
		if old != nil {
			old.Close()
		}
		b.fails.Store(0)
		b.trial.Store(false)
		b.setState(BackendHalfOpen)
	}
}

// Drain removes one backend gracefully: it leaves rotation immediately (new
// calls reroute), in-flight calls to it finish, and only then is its
// connection closed. The generalization of the sched.Close contract to one
// fleet member.
func (p *Pool) Drain(addr string) error {
	p.bmu.Lock()
	var b *poolBackend
	for i, x := range p.backends {
		if x.addr == addr {
			b = x
			p.backends = append(p.backends[:i], p.backends[i+1:]...)
			break
		}
	}
	p.bmu.Unlock()
	if b == nil {
		return fmt.Errorf("splitrt: pool: unknown backend %s", addr)
	}
	b.setState(BackendDraining)
	b.gate.Drain()
	b.mu.Lock()
	client := b.client
	b.client = nil
	b.mu.Unlock()
	if client != nil {
		return client.Close()
	}
	return nil
}

// Close drains the pool: the health loop stops, in-flight calls finish,
// new calls fail with ErrPoolClosed, and every backend connection is
// closed. Idempotent.
func (p *Pool) Close() error {
	p.closeOnce.Do(func() {
		close(p.healthStop)
		<-p.healthDone
		p.gate.Drain()
		p.bmu.Lock()
		backends := p.backends
		p.backends = nil
		p.bmu.Unlock()
		for _, b := range backends {
			b.setState(BackendDraining)
			b.gate.Drain()
			b.mu.Lock()
			if b.client != nil {
				b.client.Close()
				b.client = nil
			}
			b.mu.Unlock()
		}
	})
	return nil
}

// BackendStatus is one backend's row in a PoolStats snapshot.
type BackendStatus struct {
	Addr     string
	State    string
	Inflight int
	Requests int64
	Errors   int64
}

// PoolStats is a point-in-time snapshot of the fleet's health and traffic.
type PoolStats struct {
	Backends  []BackendStatus
	Requests  int64
	Reroutes  int64
	Hedges    int64
	HedgeWins int64
	Ejections int64
	Readmits  int64
}

// Stats snapshots the pool. Safe to call concurrently with traffic.
func (p *Pool) Stats() PoolStats {
	s := PoolStats{
		Requests:  p.m.requests.Value(),
		Reroutes:  p.m.reroutes.Value(),
		Hedges:    p.m.hedges.Value(),
		HedgeWins: p.m.hedgeWins.Value(),
		Ejections: p.m.ejections.Value(),
		Readmits:  p.m.readmits.Value(),
	}
	p.bmu.RLock()
	defer p.bmu.RUnlock()
	for _, b := range p.backends {
		s.Backends = append(s.Backends, BackendStatus{
			Addr:     b.addr,
			State:    b.getState().String(),
			Inflight: int(b.inflight.Load()),
			Requests: b.requests.Value(),
			Errors:   b.errors.Value(),
		})
	}
	return s
}

// Split returns the model partition the pool serves — the gateway needs it
// to validate incoming requests.
func (p *Pool) Split() *core.Split { return p.edge.Split }
