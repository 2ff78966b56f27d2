package obs

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestSLOFiringResolved: a latency ceiling fires when the windowed p99
// crosses the target and resolves when it recovers, with the transitions
// mirrored in slo.* gauges and the event ring.
func TestSLOFiringResolved(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("server.latency_seconds", 0.001, 0.005, 0.05, 0.5)
	w := NewWindows(reg, WindowOptions{Bucket: time.Second, Buckets: 2})
	s, err := NewSLO(w, nil, Objective{
		Name: "latency.p99", Metric: "server.latency_seconds",
		Aggregate: AggP99, Op: OpAtMost, Target: 0.005,
		Labels: map[string]string{"tier": "gold"},
	})
	if err != nil {
		t.Fatal(err)
	}

	t0 := time.Unix(0, 0)
	s.Evaluate(t0) // baseline

	// Fast traffic: within target, no transition (initial state is healthy).
	for i := 0; i < 100; i++ {
		h.Observe(0.0005)
	}
	if ev := s.Evaluate(t0.Add(time.Second)); len(ev) != 0 {
		t.Fatalf("healthy traffic emitted %v", ev)
	}
	if f := s.Firing(); len(f) != 0 {
		t.Fatalf("firing = %v, want none", f)
	}

	// Slow traffic floods the window: p99 breaches and one firing event
	// lands with the objective's labels.
	for i := 0; i < 1000; i++ {
		h.Observe(0.3)
	}
	ev := s.Evaluate(t0.Add(2 * time.Second))
	if len(ev) != 1 || ev[0].State != StateFiring || ev[0].Name != "latency.p99" {
		t.Fatalf("breach emitted %v", ev)
	}
	if ev[0].Value <= 0.005 || ev[0].Target != 0.005 || ev[0].Op != OpAtMost {
		t.Fatalf("firing event payload: %+v", ev[0])
	}
	if ev[0].Labels["tier"] != "gold" {
		t.Fatalf("labels not carried: %+v", ev[0].Labels)
	}
	if f := s.Firing(); len(f) != 1 || f[0] != "latency.p99" {
		t.Fatalf("firing = %v", f)
	}
	snap := reg.Snapshot()
	if snap.Gauges["slo.latency.p99.firing"] != 1 {
		t.Fatalf("firing gauge = %v, want 1", snap.Gauges["slo.latency.p99.firing"])
	}
	if snap.Gauges["slo.latency.p99.target"] != 0.005 {
		t.Fatalf("target gauge = %v", snap.Gauges["slo.latency.p99.target"])
	}

	// Still breaching on the next evaluation: no duplicate event.
	for i := 0; i < 1000; i++ {
		h.Observe(0.3)
	}
	if ev := s.Evaluate(t0.Add(3 * time.Second)); len(ev) != 0 {
		t.Fatalf("steady breach re-emitted %v", ev)
	}

	// Recovery: the slow burst ages out of the 2-bucket window and a
	// resolved event lands.
	var resolved []Event
	at := t0.Add(3 * time.Second)
	for i := 0; i < 4; i++ {
		at = at.Add(time.Second)
		for j := 0; j < 100; j++ {
			h.Observe(0.0005)
		}
		resolved = append(resolved, s.Evaluate(at)...)
	}
	if len(resolved) != 1 || resolved[0].State != StateResolved {
		t.Fatalf("recovery emitted %v", resolved)
	}
	if snap := reg.Snapshot(); snap.Gauges["slo.latency.p99.firing"] != 0 {
		t.Fatal("firing gauge should clear on resolve")
	}
	if f := s.Firing(); len(f) != 0 {
		t.Fatalf("firing after recovery = %v", f)
	}

	// Both transitions sit in the ring in order, and the counters add up.
	events := s.Events().Snapshot()
	if len(events) != 2 || events[0].State != StateFiring || events[1].State != StateResolved {
		t.Fatalf("ring = %v", events)
	}
	if snap := reg.Snapshot(); snap.Counters["slo.events"] != 2 {
		t.Fatalf("slo.events = %d, want 2", snap.Counters["slo.events"])
	}
}

// TestSLOPrivacyFloor: an OpAtLeast objective over a privacy metric fires
// when the windowed mean drops below the floor — "not noisy enough" is the
// breach direction.
func TestSLOPrivacyFloor(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("privacy.invivo", 0.5, 1, 2, 4, 8)
	w := NewWindows(reg, WindowOptions{Bucket: time.Second, Buckets: 2})
	s, err := NewSLO(w, nil, Objective{
		Name: "privacy.invivo", Metric: "privacy.invivo",
		Aggregate: AggMean, Op: OpAtLeast, Target: 3, MinCount: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(0, 0)
	s.Evaluate(t0)

	// Below MinCount: no verdict even though the values breach.
	for i := 0; i < 3; i++ {
		h.Observe(0.6)
	}
	if ev := s.Evaluate(t0.Add(time.Second)); len(ev) != 0 {
		t.Fatalf("below MinCount emitted %v", ev)
	}

	// Enough samples, still low: fires.
	for i := 0; i < 10; i++ {
		h.Observe(0.6)
	}
	ev := s.Evaluate(t0.Add(2 * time.Second))
	if len(ev) != 1 || ev[0].State != StateFiring || ev[0].Op != OpAtLeast {
		t.Fatalf("privacy floor breach emitted %v", ev)
	}

	// High 1/SNR traffic displaces the window: resolves.
	var resolved []Event
	at := t0.Add(2 * time.Second)
	for i := 0; i < 4; i++ {
		at = at.Add(time.Second)
		for j := 0; j < 20; j++ {
			h.Observe(6)
		}
		resolved = append(resolved, s.Evaluate(at)...)
	}
	if len(resolved) != 1 || resolved[0].State != StateResolved {
		t.Fatalf("privacy recovery emitted %v", resolved)
	}
}

// TestSLONoDataHoldsVerdict: a quiet window neither fires nor resolves —
// the previous verdict stands until data argues otherwise.
func TestSLONoDataHoldsVerdict(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", 0.001, 0.01)
	w := NewWindows(reg, WindowOptions{Bucket: time.Second, Buckets: 2})
	s, err := NewSLO(w, nil, Objective{
		Name: "lat.p50", Metric: "lat", Aggregate: AggP50, Op: OpAtMost, Target: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(0, 0)
	s.Evaluate(t0)
	for i := 0; i < 10; i++ {
		h.Observe(0.005) // breach
	}
	if ev := s.Evaluate(t0.Add(time.Second)); len(ev) != 1 || ev[0].State != StateFiring {
		t.Fatalf("breach emitted %v", ev)
	}
	// Traffic stops; the breach ages out, the window goes empty — and the
	// verdict holds rather than resolving on absence of evidence.
	at := t0.Add(time.Second)
	for i := 0; i < 6; i++ {
		at = at.Add(time.Second)
		if ev := s.Evaluate(at); len(ev) != 0 {
			t.Fatalf("quiet window emitted %v", ev)
		}
	}
	if f := s.Firing(); len(f) != 1 {
		t.Fatalf("verdict should hold through quiet windows: %v", f)
	}
}

// TestSLOCounterRate: AggRate works against plain counters.
func TestSLOCounterRate(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("server.errors")
	w := NewWindows(reg, WindowOptions{Bucket: time.Second, Buckets: 2})
	s, err := NewSLO(w, nil, Objective{
		Name: "errors.rate", Metric: "server.errors", Aggregate: AggRate, Op: OpAtMost, Target: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(0, 0)
	s.Evaluate(t0)
	c.Add(100) // 100 errors in 1s: rate 100/s > 5/s
	if ev := s.Evaluate(t0.Add(time.Second)); len(ev) != 1 || ev[0].State != StateFiring {
		t.Fatalf("error-rate breach emitted %v", ev)
	}
}

// TestSLOValidation: bad objectives are rejected up front.
func TestSLOValidation(t *testing.T) {
	reg := NewRegistry()
	w := NewWindows(reg, WindowOptions{})
	good := Objective{Name: "a", Metric: "m", Aggregate: AggP50, Op: OpAtMost, Target: 1}
	cases := []struct {
		name string
		win  *Windows
		objs []Objective
	}{
		{"nil window", nil, []Objective{good}},
		{"no objectives", w, nil},
		{"missing name", w, []Objective{{Metric: "m", Aggregate: AggP50, Op: OpAtMost}}},
		{"missing metric", w, []Objective{{Name: "a", Aggregate: AggP50, Op: OpAtMost}}},
		{"bad aggregate", w, []Objective{{Name: "a", Metric: "m", Aggregate: "p42", Op: OpAtMost}}},
		{"bad op", w, []Objective{{Name: "a", Metric: "m", Aggregate: AggP50, Op: "=="}}},
		{"duplicate name", w, []Objective{good, good}},
	}
	for _, tc := range cases {
		if _, err := NewSLO(tc.win, nil, tc.objs...); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// TestSLOStartStop: the background goroutine evaluates at every tick and
// stop is idempotent. The test is the clock: it sends the ticks.
func TestSLOStartStop(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("lat", 0.001)
	newSLO := func() *SLO {
		w := NewWindows(reg, WindowOptions{Bucket: 5 * time.Millisecond, Buckets: 2})
		s, err := NewSLO(w, nil, Objective{
			Name: "lat.p50", Metric: "lat", Aggregate: AggP50, Op: OpAtMost, Target: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ticks := make(chan time.Time)
	stop := newSLO().startOn(ticks, func() {})
	base := time.Now()
	for i := 1; i <= 3; i++ {
		ticks <- base.Add(time.Duration(i) * 5 * time.Millisecond)
	}
	stop() // returns once the third tick was evaluated
	stop() // idempotent
	if evals := reg.Snapshot().Counters["slo.evals"]; evals != 3 {
		t.Fatalf("three ticks ran %d evaluations", evals)
	}

	// On the real ticker (0 = the window's bucket cadence): starts and
	// stops, twice.
	stop = newSLO().Start(0)
	stop()
	stop()
}

// TestSLONil: every method is a no-op on a nil SLO.
func TestSLONil(t *testing.T) {
	var s *SLO
	if s.Events() != nil || s.Objectives() != nil || s.Firing() != nil {
		t.Fatal("nil SLO accessors should return nil")
	}
	if ev := s.Evaluate(time.Now()); ev != nil {
		t.Fatalf("nil Evaluate: %v", ev)
	}
	s.Start(time.Second)()
}

// TestEventRing: bounded append, oldest-first snapshots, Since, Total, and
// nil safety.
func TestEventRing(t *testing.T) {
	r := NewEventRing(3)
	for i := 1; i <= 5; i++ {
		e := r.Append(Event{Name: fmt.Sprintf("e%d", i)})
		if e.Seq != uint64(i) {
			t.Fatalf("append %d stamped seq %d", i, e.Seq)
		}
	}
	got := r.Snapshot()
	if len(got) != 3 || got[0].Name != "e3" || got[2].Name != "e5" {
		t.Fatalf("ring snapshot = %v", got)
	}
	if since := r.Since(4); len(since) != 1 || since[0].Name != "e5" {
		t.Fatalf("Since(4) = %v", since)
	}
	if since := r.Since(99); len(since) != 0 {
		t.Fatalf("Since(99) = %v", since)
	}
	if r.Total() != 5 {
		t.Fatalf("Total = %d", r.Total())
	}

	var nilRing *EventRing
	if e := nilRing.Append(Event{Name: "x"}); e.Seq != 0 {
		t.Fatal("nil ring Append should return zero Event")
	}
	if nilRing.Snapshot() != nil || nilRing.Total() != 0 {
		t.Fatal("nil ring reads should be empty")
	}
	if NewEventRing(0) == nil {
		t.Fatal("NewEventRing clamps n to 1")
	}
}

// TestMergedEvents: local events keep an empty source, fetched events get
// stamped (nested labels compose), a failing source surfaces as a
// synthetic firing event, and the merge is time-ordered.
func TestMergedEvents(t *testing.T) {
	local := NewEventRing(8)
	local.Append(Event{UnixNanos: 30, Name: "local.obj", State: StateFiring})
	sources := []Source[[]Event]{
		{Label: "backend.a", Fetch: func() ([]Event, error) {
			return []Event{
				{UnixNanos: 10, Name: "lat", State: StateFiring},
				{UnixNanos: 40, Name: "lat", State: StateResolved, Source: "inner"},
			}, nil
		}},
		{Label: "backend.b", Fetch: func() ([]Event, error) {
			return nil, fmt.Errorf("connection refused")
		}},
		{Label: "backend.c"}, // nil Fetch: skipped
	}
	out := MergedEvents(local, sources)
	if len(out) != 4 {
		t.Fatalf("merged %d events: %v", len(out), out)
	}
	// Time-ordered; the synthetic outage event is stamped time.Now() so it
	// sorts last here.
	if out[0].Name != "lat" || out[0].Source != "backend.a" {
		t.Fatalf("first = %+v", out[0])
	}
	if out[1].Name != "local.obj" || out[1].Source != "" {
		t.Fatalf("local event = %+v", out[1])
	}
	if out[2].Source != "backend.a.inner" {
		t.Fatalf("nested source = %+v", out[2])
	}
	outage := out[3]
	if outage.Name != "event-source" || outage.State != StateFiring || outage.Source != "backend.b" {
		t.Fatalf("outage event = %+v", outage)
	}
	if !strings.Contains(outage.Labels["error"], "connection refused") {
		t.Fatalf("outage error label = %v", outage.Labels)
	}
}

// TestEventString: the one-line rendering carries source, state, and the
// value-vs-target comparison.
func TestEventString(t *testing.T) {
	e := Event{Name: "latency.p99", State: StateFiring, Value: 0.042, Target: 0.005, Op: OpAtMost, Window: 60, Source: "backend.a"}
	s := e.String()
	for _, want := range []string{"backend.a", "latency.p99", "firing", "0.042", "<=", "0.005", "60s"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}
