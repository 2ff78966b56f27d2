package obs

import (
	"fmt"
	"sync"
	"time"
)

// The SLO engine: objectives over sliding-window aggregates, evaluated on
// a ticker, emitting firing/resolved transitions into an EventRing and
// mirroring their live state as slo.* metrics (so a merged fleet snapshot
// carries every backend's alert state for free).

// Aggregate names how an objective reduces its metric's window.
type Aggregate string

const (
	AggP50  Aggregate = "p50"  // windowed 50th-percentile (histograms)
	AggP95  Aggregate = "p95"  // windowed 95th-percentile (histograms)
	AggP99  Aggregate = "p99"  // windowed 99th-percentile (histograms)
	AggMean Aggregate = "mean" // windowed mean of observations (histograms)
	AggRate Aggregate = "rate" // events per second over the window (counters and histograms)
)

// Op compares the window value against the target.
type Op string

const (
	// OpAtMost breaches when value > target (latency-style ceilings).
	OpAtMost Op = "<="
	// OpAtLeast breaches when value < target (privacy-style floors).
	OpAtLeast Op = ">="
)

// Objective is one service-level objective over a registered metric's
// sliding window: "the windowed <Aggregate> of <Metric> must stay <Op>
// <Target>". The canonical pair this repo serves with:
//
//   - latency: windowed p99 of server.latency_seconds ≤ 5ms
//   - privacy: windowed mean of privacy.invivo ≥ the deployment's 1/SNR
//     target — the paper's privacy level as a *continuously held* budget
//     rather than a lifetime average.
type Objective struct {
	// Name identifies the objective in events and slo.<name>.* metrics
	// (e.g. "latency.p99", "privacy.invivo").
	Name string
	// Metric is the registered histogram (any aggregate) or counter
	// (AggRate only) the objective watches.
	Metric string
	// Aggregate reduces the metric's window to the judged value.
	Aggregate Aggregate
	// Op and Target define the objective: breach when the value is on the
	// wrong side of Target.
	Op     Op
	Target float64
	// MinCount suppresses judgment until the window holds at least this
	// many observations (histograms only; values < 1 behave as 1). An
	// empty window proves nothing — especially for a privacy floor, where
	// "no samples" must not read as "private".
	MinCount int64
	// Labels travel verbatim on every event the objective emits.
	Labels map[string]string
}

func (o Objective) validate() error {
	if o.Name == "" {
		return fmt.Errorf("obs: objective needs a name")
	}
	if o.Metric == "" {
		return fmt.Errorf("obs: objective %s needs a metric", o.Name)
	}
	switch o.Aggregate {
	case AggP50, AggP95, AggP99, AggMean, AggRate:
	default:
		return fmt.Errorf("obs: objective %s: unknown aggregate %q (want p50, p95, p99, mean, or rate)", o.Name, o.Aggregate)
	}
	switch o.Op {
	case OpAtMost, OpAtLeast:
	default:
		return fmt.Errorf("obs: objective %s: unknown op %q (want %q or %q)", o.Name, o.Op, OpAtMost, OpAtLeast)
	}
	return nil
}

// value reduces a window snapshot to the objective's judged value; ok is
// false when the metric is absent from the window or below MinCount.
func (o Objective) value(ws *WindowSnapshot) (v float64, ok bool) {
	if ws == nil {
		return 0, false
	}
	if h, found := ws.Histograms[o.Metric]; found {
		min := o.MinCount
		if min < 1 {
			min = 1
		}
		if h.Count < min {
			return 0, false
		}
		switch o.Aggregate {
		case AggP50:
			return h.P50, true
		case AggP95:
			return h.P95, true
		case AggP99:
			return h.P99, true
		case AggMean:
			return h.Mean, true
		case AggRate:
			return h.Rate, true
		}
	}
	if c, found := ws.Counters[o.Metric]; found && o.Aggregate == AggRate {
		return c.Rate, true
	}
	return 0, false
}

// breached reports whether v is on the wrong side of the target.
func (o Objective) breached(v float64) bool {
	if o.Op == OpAtLeast {
		return v < o.Target
	}
	return v > o.Target
}

// SLO evaluates a set of objectives against a sliding window on a ticker.
// Each evaluation advances the window, reduces every objective, and emits
// an Event on each firing/resolved transition. Live state is mirrored in
// the window's registry:
//
//	slo.evals                 counter, evaluation passes
//	slo.events                counter, emitted transitions
//	slo.<name>.firing         gauge, 1 while breaching
//	slo.<name>.value          gauge, last judged window value
//
// All methods are safe for concurrent use and no-ops on a nil receiver.
type SLO struct {
	win        *Windows
	events     *EventRing
	objectives []Objective

	mu     sync.Mutex
	firing []bool

	evals  *Counter
	emits  *Counter
	fireG  []*Gauge
	valueG []*Gauge

	stopOnce sync.Once
	stopCh   chan struct{}
}

// NewSLO builds an engine over win's registry, emitting transitions into
// events (a nil ring is replaced by a fresh 256-event ring; use Events to
// retrieve it). Returns an error on a nil window or an invalid objective.
func NewSLO(win *Windows, events *EventRing, objectives ...Objective) (*SLO, error) {
	if win == nil {
		return nil, fmt.Errorf("obs: SLO needs a window")
	}
	if len(objectives) == 0 {
		return nil, fmt.Errorf("obs: SLO needs at least one objective")
	}
	seen := map[string]bool{}
	for _, o := range objectives {
		if err := o.validate(); err != nil {
			return nil, err
		}
		if seen[o.Name] {
			return nil, fmt.Errorf("obs: duplicate objective name %q", o.Name)
		}
		seen[o.Name] = true
	}
	if events == nil {
		events = NewEventRing(256)
	}
	s := &SLO{
		win:        win,
		events:     events,
		objectives: objectives,
		firing:     make([]bool, len(objectives)),
		evals:      win.reg.Counter("slo.evals"),
		emits:      win.reg.Counter("slo.events"),
		fireG:      make([]*Gauge, len(objectives)),
		valueG:     make([]*Gauge, len(objectives)),
		stopCh:     make(chan struct{}),
	}
	for i, o := range objectives {
		s.fireG[i] = win.reg.Gauge("slo." + o.Name + ".firing")
		s.valueG[i] = win.reg.Gauge("slo." + o.Name + ".value")
		win.reg.Gauge("slo." + o.Name + ".target").Set(o.Target)
	}
	return s, nil
}

// Events returns the ring transitions are emitted into (nil on a nil SLO).
func (s *SLO) Events() *EventRing {
	if s == nil {
		return nil
	}
	return s.events
}

// Objectives returns the configured objectives (nil on a nil SLO).
func (s *SLO) Objectives() []Objective {
	if s == nil {
		return nil
	}
	return s.objectives
}

// Firing returns the names of currently breaching objectives.
func (s *SLO) Firing() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for i, f := range s.firing {
		if f {
			out = append(out, s.objectives[i].Name)
		}
	}
	return out
}

// Evaluate advances the window to now and judges every objective,
// appending an Event per state transition. It returns the emitted
// transitions (usually none). Nil-safe.
func (s *SLO) Evaluate(now time.Time) []Event {
	if s == nil {
		return nil
	}
	ws := s.win.Advance(now)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evals.Inc()
	var emitted []Event
	for i, o := range s.objectives {
		v, ok := o.value(ws)
		if !ok {
			// No (or not enough) data: hold the previous verdict rather
			// than flapping — a quiet window neither fires nor resolves.
			continue
		}
		s.valueG[i].Set(v)
		breach := o.breached(v)
		if breach == s.firing[i] {
			continue
		}
		s.firing[i] = breach
		state := StateResolved
		g := 0.0
		if breach {
			state, g = StateFiring, 1
		}
		s.fireG[i].Set(g)
		e := s.events.Append(Event{
			UnixNanos: now.UnixNano(),
			Name:      o.Name,
			State:     state,
			Value:     v,
			Target:    o.Target,
			Op:        o.Op,
			Window:    ws.Seconds,
			Labels:    o.Labels,
		})
		s.emits.Inc()
		emitted = append(emitted, e)
	}
	return emitted
}

// Start evaluates on the given cadence (0 = the window's bucket duration)
// from a background goroutine until the returned stop function is called
// (idempotent). Nil-safe.
func (s *SLO) Start(interval time.Duration) (stop func()) {
	if s == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = s.win.Bucket()
	}
	t := time.NewTicker(interval)
	return s.startOn(t.C, t.Stop)
}

// startOn is Start on the caller's clock: it evaluates at every time ticks
// delivers.
func (s *SLO) startOn(ticks <-chan time.Time, release func()) (stop func()) {
	return runOnTicks(ticks, release, &s.stopOnce, s.stopCh, func(now time.Time) { s.Evaluate(now) })
}
