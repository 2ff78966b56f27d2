package core

import (
	"fmt"
	"io"
	"sync/atomic"

	"shredder/internal/obs"
	"shredder/internal/tensor"
)

// DefPrivacyBuckets are the histogram bounds for in-vivo 1/SNR: the paper's
// operating points run from ~1 (weak noise) to ~10+ (strong noise), so the
// buckets cover two decades around that range.
var DefPrivacyBuckets = []float64{
	0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 4, 8, 16, 32, 64,
}

// Privacy metric names, exported so SLO objectives, dashboards, and the
// serving layer reference the monitor's series without magic strings.
const (
	// MetricInVivo is the histogram of sampled in-vivo 1/SNR values — the
	// metric a privacy SLO watches ("the windowed mean 1/SNR must stay at
	// or above the deployment's target").
	MetricInVivo = "privacy.invivo"
	// MetricInVivoLast is the gauge holding the most recent sampled 1/SNR.
	MetricInVivoLast = "privacy.invivo.last"
	// MetricPrivacyAlerts counts sampled 1/SNR values below the target.
	MetricPrivacyAlerts = "privacy.alerts"
)

// PrivacyMonitor measures the privacy a deployment is actually delivering,
// query by query: every noise application is counted per collection member
// (sampling balance), and every sampleEvery-th query computes the realized
// in-vivo 1/SNR = Var(noise)/E[a²] against the *clean* activation — the
// same quantity TrainNoise maximizes, now observed in production. The
// member's noise variance and L1 are precomputed at construction (members
// are immutable after training), so a sampled observation costs one pass
// over the activation and a few atomic stores.
//
// Registered metrics:
//
//	privacy.queries              counter, every observed noise application
//	privacy.sampled              counter, observations that computed 1/SNR
//	privacy.alerts               counter, sampled 1/SNR below the target
//	privacy.invivo               histogram of sampled 1/SNR
//	privacy.invivo.last          gauge, most recent 1/SNR
//	privacy.snr.last             gauge, most recent activation SNR
//	privacy.member.NN.samples    counter per member, sampling balance
//	privacy.member.NN.invivo     gauge per member, last sampled 1/SNR
//	privacy.member.NN.noise_l1   gauge per member, ‖noise‖₁ (static)
//
// All methods are safe for concurrent use and no-ops on a nil receiver, so
// callers write m.Observe(...) unconditionally.
type PrivacyMonitor struct {
	target float64
	every  uint64
	tick   atomic.Uint64

	queries *obs.Counter
	sampled *obs.Counter
	alerts  *obs.Counter
	invivo  *obs.Histogram
	lastInv *obs.Gauge
	lastSNR *obs.Gauge

	members []memberTelemetry

	// fitted is set when the monitor observes a FittedCollection: per-query
	// draws are fresh samples, so the per-member balance gauges are replaced
	// by static distribution-parameter gauges and the realized 1/SNR is
	// computed from each sampled draw's own noise (still in vivo).
	fitted *FittedCollection
}

// memberTelemetry is the per-collection-member slice of the monitor.
type memberTelemetry struct {
	noiseVar float64
	noiseL1  float64
	samples  *obs.Counter
	invivo   *obs.Gauge // last sampled 1/SNR
}

// NewPrivacyMonitor builds the monitor of a noise source. target is the
// 1/SNR floor below which alert counters fire (≤ 0 disables alerting, e.g.
// for baselines without a PrivacyTarget); sampleEvery computes the
// activation statistics on every N-th query (values < 1 are clamped to 1 —
// sample every query). A stored collection gets the per-member series above;
// a fitted source gets the same query/sample/alert pipeline plus static
// distribution-parameter gauges in place of member-balance gauges:
//
//	privacy.dist.components      gauge, mixture size (trained members fitted)
//	privacy.dist.loc             gauge, mixture-mean location
//	privacy.dist.scale           gauge, mixture-mean scale
//	privacy.dist.noise_var       gauge, analytic element variance of a draw
//	privacy.dist.weight.*        same three for the fitted weights (fitted-mul)
//
// Returns nil (a valid, disabled monitor) when reg or src is nil, the
// collection is empty or the source is of an unknown type.
func NewPrivacyMonitor(reg *obs.Registry, src NoiseSource, target float64, sampleEvery int) *PrivacyMonitor {
	col, _ := src.(*Collection)
	fc, _ := src.(*FittedCollection)
	if reg == nil || ((col == nil || col.Len() == 0) && (fc == nil || fc.Noise == nil)) {
		return nil
	}
	m := &PrivacyMonitor{
		target:  target,
		every:   uint64(max(sampleEvery, 1)),
		queries: reg.Counter("privacy.queries"),
		sampled: reg.Counter("privacy.sampled"),
		alerts:  reg.Counter(MetricPrivacyAlerts),
		invivo:  reg.Histogram(MetricInVivo, DefPrivacyBuckets...),
		lastInv: reg.Gauge(MetricInVivoLast),
		lastSNR: reg.Gauge("privacy.snr.last"),
		fitted:  fc,
	}
	if fc != nil {
		reg.Gauge("privacy.dist.components").Set(float64(fc.Components()))
		reg.Gauge("privacy.dist.loc").Set(fc.Noise.MeanLoc())
		reg.Gauge("privacy.dist.scale").Set(fc.Noise.MeanScale())
		reg.Gauge("privacy.dist.noise_var").Set(fc.Noise.Variance())
		if fc.Weight != nil {
			reg.Gauge("privacy.dist.weight.loc").Set(fc.Weight.MeanLoc())
			reg.Gauge("privacy.dist.weight.scale").Set(fc.Weight.MeanScale())
			reg.Gauge("privacy.dist.weight.var").Set(fc.Weight.Variance())
		}
		return m
	}
	// Members are immutable after training: their variance and L1 are
	// computed here, once.
	m.members = make([]memberTelemetry, col.Len())
	for i, v := range col.Members {
		name := fmt.Sprintf("privacy.member.%02d", i)
		mt := &m.members[i]
		mt.noiseVar = v.Variance()
		mt.noiseL1 = v.AbsSum()
		mt.samples = reg.Counter(name + ".samples")
		mt.invivo = reg.Gauge(name + ".invivo")
		reg.Gauge(name + ".noise_l1").Set(mt.noiseL1)
	}
	return m
}

// Observe records one noise application: d is the draw about to be applied
// and clean the activation it will land on — call it before ApplyInPlace,
// the realized SNR is defined against the signal, not the noisy sum. Every
// call counts the query and, for a stored member, its sampling balance;
// every sampleEvery-th computes the realized in-vivo 1/SNR, Draw.Power over
// E[a²]: Var(noise)/E[a²] for an additive draw (a stored member's variance is
// the one computed at construction) and the realized perturbation power
// E[(a⊙w + n − a)²]/E[a²] for a multiplicative one. sampled reports whether this query was one of
// those — the value per-request audit records carry. It is false when the
// query was only counted (not the monitor's sampling turn, a zero
// activation, a draw without noise, or a nil monitor); invivo is then 0 and
// must not be recorded as evidence.
func (m *PrivacyMonitor) Observe(d Draw, clean *tensor.Tensor) (invivo float64, sampled bool) {
	if m == nil {
		return 0, false
	}
	m.queries.Inc()
	var mt *memberTelemetry
	if d.Member >= 0 && d.Member < len(m.members) {
		mt = &m.members[d.Member]
		mt.samples.Inc()
	}
	if m.tick.Add(1)%m.every != 0 {
		return 0, false
	}
	n := clean.Len()
	if n == 0 || d.Noise == nil {
		return 0, false
	}
	ea2 := clean.SqSum() / float64(n)
	if !(ea2 > 0) {
		return 0, false // all-zero activation: SNR undefined, skip the sample
	}
	var inv float64
	if mt != nil && !d.Multiplicative() {
		inv = mt.noiseVar / ea2 // a stored member's variance, computed once
	} else {
		inv = d.Power(clean) / ea2
	}
	m.sampled.Inc()
	m.invivo.Observe(inv)
	m.lastInv.Set(inv)
	if inv > 0 {
		m.lastSNR.Set(1 / inv)
	}
	if mt != nil {
		mt.invivo.Set(inv)
	}
	if m.target > 0 && inv < m.target {
		m.alerts.Inc()
	}
	return inv, true
}

// Queries returns how many noise applications were observed.
func (m *PrivacyMonitor) Queries() int64 {
	if m == nil {
		return 0
	}
	return m.queries.Value()
}

// Alerts returns how many sampled observations fell below the target.
func (m *PrivacyMonitor) Alerts() int64 {
	if m == nil {
		return 0
	}
	return m.alerts.Value()
}

// WriteSummary renders the query/alert totals plus either a per-member
// table (samples, share, noise L1, last sampled 1/SNR) for stored
// collections or the fitted distribution parameters for fitted sources —
// the `shredder infer -privacy-sample` report. Nil-safe: a nil monitor
// writes nothing.
func (m *PrivacyMonitor) WriteSummary(w io.Writer) {
	if m == nil {
		return
	}
	total := m.queries.Value()
	fmt.Fprintf(w, "privacy telemetry: %d queries, %d sampled, %d alerts (target 1/SNR >= %g)\n",
		total, m.sampled.Value(), m.alerts.Value(), m.target)
	if f := m.fitted; f != nil {
		fmt.Fprintf(w, "mode %s: %d-component %s mixture, loc %.4f, scale %.4f, draw var %.4f\n",
			f.Mode(), f.Components(), f.Noise.Kind, f.Noise.MeanLoc(), f.Noise.MeanScale(), f.Noise.Variance())
		if f.Weight != nil {
			fmt.Fprintf(w, "weights: loc %.4f, scale %.4f, draw var %.4f\n",
				f.Weight.MeanLoc(), f.Weight.MeanScale(), f.Weight.Variance())
		}
		last := "-"
		if v := m.lastInv.Value(); v != 0 {
			last = fmt.Sprintf("%.3f", v)
		}
		fmt.Fprintf(w, "last sampled 1/SNR %s (fresh per-query draws; no member balance)\n", last)
		return
	}
	fmt.Fprintf(w, "%-8s %10s %7s %12s %12s\n", "member", "samples", "share", "noise_l1", "last 1/SNR")
	for i := range m.members {
		mt := &m.members[i]
		n := mt.samples.Value()
		share := 0.0
		if total > 0 {
			share = 100 * float64(n) / float64(total)
		}
		last := "-"
		if v := mt.invivo.Value(); v != 0 {
			last = fmt.Sprintf("%.3f", v)
		}
		fmt.Fprintf(w, "%-8d %10d %6.1f%% %12.3f %12s\n", i, n, share, mt.noiseL1, last)
	}
}
