package core

// Tests for the live privacy telemetry: per-member attribution, the sampled
// in-vivo 1/SNR computation against the clean activation, alerting below
// the privacy target, and the disabled (nil-monitor) contract.

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"shredder/internal/obs"
	"shredder/internal/tensor"
)

// telemetryCollection builds a two-member collection with known statistics:
// member 0 has noise variance 1 (L1 = 4), member 1 variance 100 (L1 = 40).
func telemetryCollection() *Collection {
	weak := tensor.New(1, 2, 2)
	copy(weak.Data(), []float64{1, -1, 1, -1})
	strong := tensor.New(1, 2, 2)
	copy(strong.Data(), []float64{10, -10, 10, -10})
	return &Collection{
		Shape:   []int{1, 2, 2},
		Members: []*tensor.Tensor{weak, strong},
		InVivo:  []float64{1, 100},
	}
}

// member is the draw of col's i-th member; an index outside the collection
// draws nothing.
func member(col *Collection, i int) Draw {
	d := Draw{Member: i}
	if i >= 0 && i < col.Len() {
		d.Noise = col.Members[i]
	}
	return d
}

// TestPrivacyMonitorObserve drives known activations through both members
// and checks the realized 1/SNR, the per-member attribution, and that only
// the weak member trips the alert counter.
func TestPrivacyMonitorObserve(t *testing.T) {
	reg := obs.NewRegistry()
	col := telemetryCollection()
	m := NewPrivacyMonitor(reg, col, 2, 1) // target 1/SNR >= 2, sample every query
	if m == nil {
		t.Fatal("monitor not built")
	}
	act := tensor.New(1, 2, 2).Fill(1) // E[a²] = 1

	// Member 0: 1/SNR = Var(n)/E[a²] = 1 < target 2 — alert.
	m.Observe(member(col, 0), act)
	// Member 1: 1/SNR = 100 — comfortably above the target.
	m.Observe(member(col, 1), act)

	if m.Queries() != 2 || m.Alerts() != 1 {
		t.Fatalf("queries=%d alerts=%d, want 2/1", m.Queries(), m.Alerts())
	}
	snap := reg.Snapshot()
	if snap.Counters["privacy.sampled"] != 2 {
		t.Fatalf("sampled counter: %+v", snap.Counters)
	}
	if got := snap.Gauges["privacy.member.00.invivo"]; got != 1 {
		t.Fatalf("member 0 in-vivo gauge %v, want 1", got)
	}
	if got := snap.Gauges["privacy.member.01.invivo"]; got != 100 {
		t.Fatalf("member 1 in-vivo gauge %v, want 100", got)
	}
	if got := snap.Gauges["privacy.invivo.last"]; got != 100 {
		t.Fatalf("last in-vivo gauge %v, want the most recent sample 100", got)
	}
	if got := snap.Gauges["privacy.snr.last"]; got != 0.01 {
		t.Fatalf("last SNR gauge %v, want 1/100", got)
	}
	if got := snap.Gauges["privacy.member.00.noise_l1"]; got != 4 {
		t.Fatalf("member 0 noise L1 gauge %v, want 4", got)
	}
	if snap.Counters["privacy.member.00.samples"] != 1 || snap.Counters["privacy.member.01.samples"] != 1 {
		t.Fatalf("member sample counters: %+v", snap.Counters)
	}
	if h := snap.Histograms["privacy.invivo"]; h.Count != 2 {
		t.Fatalf("in-vivo histogram: %+v", h)
	}
}

// TestPrivacyMonitorSamplingAndEdges covers the sampling stride, the
// all-zero-activation skip, and out-of-range member indices.
func TestPrivacyMonitorSamplingAndEdges(t *testing.T) {
	reg := obs.NewRegistry()
	col := telemetryCollection()
	m := NewPrivacyMonitor(reg, col, 0, 2) // no target, sample every 2nd
	act := tensor.New(1, 2, 2).Fill(1)
	for i := 0; i < 4; i++ {
		m.Observe(member(col, 0), act)
	}
	snap := reg.Snapshot()
	if snap.Counters["privacy.queries"] != 4 || snap.Counters["privacy.sampled"] != 2 {
		t.Fatalf("stride 2 sampled %d of %d queries, want 2 of 4",
			snap.Counters["privacy.sampled"], snap.Counters["privacy.queries"])
	}
	if m.Alerts() != 0 {
		t.Fatal("alerts fired with alerting disabled")
	}

	// An all-zero activation has undefined SNR: counted, never sampled.
	m2 := NewPrivacyMonitor(obs.NewRegistry(), col, 2, 1)
	m2.Observe(member(col, 0), tensor.New(1, 2, 2))
	if m2.Queries() != 1 || m2.Alerts() != 0 {
		t.Fatalf("zero activation: queries=%d alerts=%d", m2.Queries(), m2.Alerts())
	}

	// Out-of-range member indices must not panic or sample.
	m2.Observe(member(col, -1), act)
	m2.Observe(member(col, 99), act)
	if m2.Queries() != 3 {
		t.Fatalf("out-of-range members not counted as queries: %d", m2.Queries())
	}
}

// TestPrivacyMonitorDisabled pins the nil contract: nil inputs yield a nil
// monitor, and every method on it is a safe no-op.
func TestPrivacyMonitorDisabled(t *testing.T) {
	col := telemetryCollection()
	if NewPrivacyMonitor(nil, col, 2, 1) != nil {
		t.Fatal("nil registry must yield a nil monitor")
	}
	if NewPrivacyMonitor(obs.NewRegistry(), nil, 2, 1) != nil {
		t.Fatal("nil collection must yield a nil monitor")
	}
	if NewPrivacyMonitor(obs.NewRegistry(), &Collection{}, 2, 1) != nil {
		t.Fatal("empty collection must yield a nil monitor")
	}
	var m *PrivacyMonitor
	m.Observe(member(col, 0), tensor.New(1, 2, 2).Fill(1))
	if m.Queries() != 0 || m.Alerts() != 0 {
		t.Fatal("nil monitor must read as zero")
	}
	var buf bytes.Buffer
	m.WriteSummary(&buf)
	if buf.Len() != 0 {
		t.Fatalf("nil monitor wrote a summary: %q", buf.String())
	}
}

// TestPrivacyMonitorSummaryAndConcurrency checks the rendered summary and
// hammers Observe from many goroutines (run under -race) with exact counts.
func TestPrivacyMonitorSummaryAndConcurrency(t *testing.T) {
	col := telemetryCollection()
	m := NewPrivacyMonitor(obs.NewRegistry(), col, 2, 1)
	act := tensor.New(1, 2, 2).Fill(1)
	const workers, per = 4, 250
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Observe(member(col, (w+i)%2), act)
			}
		}(w)
	}
	wg.Wait()
	if m.Queries() != workers*per {
		t.Fatalf("lost queries: %d != %d", m.Queries(), workers*per)
	}
	// Member 0 always realizes 1/SNR = 1 < 2; member 1 realizes 100. Exactly
	// the member-0 observations alert.
	if m.Alerts() != workers*per/2 {
		t.Fatalf("alerts %d, want %d", m.Alerts(), workers*per/2)
	}
	var buf bytes.Buffer
	m.WriteSummary(&buf)
	out := buf.String()
	for _, want := range []string{"privacy telemetry: 1000 queries", "target 1/SNR >= 2", "member", "50.0%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}
