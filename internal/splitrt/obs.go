package splitrt

import (
	"time"

	"shredder/internal/core"
	"shredder/internal/obs"
	"shredder/internal/sched"
)

// defaultSpanRing is how many completed request spans a debug-enabled
// server retains for /debug/spans.
const defaultSpanRing = 256

// kindIndex maps an error kind to its counter slot, tolerating
// out-of-range values from a misbehaving peer.
func kindIndex(k ErrKind) int {
	if int(k) > int(ErrInternal) {
		return int(ErrUnknown)
	}
	return int(k)
}

// clientMetrics are the edge client's registered metrics. The client always
// owns a set (backed by a private registry unless WithMetrics shares one),
// so Stats is a thin wrapper over the same atomics.
type clientMetrics struct {
	requests      *obs.Counter
	redials       *obs.Counter
	sent          *obs.Counter
	received      *obs.Counter
	transportErrs *obs.Counter
	errs          [int(ErrInternal) + 1]*obs.Counter
	rtt           *obs.Histogram
}

func newClientMetrics(reg *obs.Registry) clientMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := clientMetrics{
		requests:      reg.Counter("client.requests"),
		redials:       reg.Counter("client.redials"),
		sent:          reg.Counter("client.bytes_sent"),
		received:      reg.Counter("client.bytes_received"),
		transportErrs: reg.Counter("client.errors.transport"),
		rtt:           reg.Histogram("client.rtt_seconds"),
	}
	for k := range m.errs {
		m.errs[k] = reg.Counter("client.errors." + ErrKind(k).String())
	}
	return m
}

// serverObs is the cloud server's observability state: registered metrics
// plus the ring of completed request spans. A nil *serverObs is the
// disabled state — every method no-ops and the serving hot path pays only
// nil checks.
type serverObs struct {
	reg       *obs.Registry
	spans     *obs.SpanRing
	requests  *obs.Counter
	ok        *obs.Counter
	errs      [int(ErrInternal) + 1]*obs.Counter
	latency   *obs.Histogram
	queue     *obs.Histogram
	compute   *obs.Histogram
	occupancy *obs.Gauge
	invivo    *obs.Histogram // server-side view of relayed in-vivo 1/SNR
	invivoG   *obs.Gauge

	prof *obs.Profiler // per-layer profiler (WithProfiling), nil otherwise
}

func newServerObs(reg *obs.Registry, spans *obs.SpanRing) *serverObs {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	o := &serverObs{
		reg:       reg,
		spans:     spans,
		requests:  reg.Counter("server.requests"),
		ok:        reg.Counter("server.responses.ok"),
		latency:   reg.Histogram("server.latency_seconds"),
		queue:     reg.Histogram("server.queue_seconds"),
		compute:   reg.Histogram("server.compute_seconds"),
		occupancy: reg.Gauge("server.batch.occupancy"),
		invivo:    reg.Histogram(core.MetricInVivo, core.DefPrivacyBuckets...),
		invivoG:   reg.Gauge(core.MetricInVivoLast),
	}
	for k := range o.errs {
		o.errs[k] = reg.Counter("server.errors." + ErrKind(k).String())
	}
	return o
}

// observeAudit folds one served request's relayed privacy attribution into
// the server-side privacy.invivo histogram. Noise is applied on the edge,
// so the server cannot measure 1/SNR itself — but the audit note every
// telemetry-enabled client attaches carries the sampled value, and
// recording it here gives the serving side a continuously updated privacy
// distribution that windows and SLOs can watch without importing the
// client. Unsampled notes (the client only counted that query) carry no
// evidence and are skipped.
func (o *serverObs) observeAudit(n *auditNote) {
	if o == nil || n == nil || !n.Sampled {
		return
	}
	o.invivo.Observe(n.InVivo)
	o.invivoG.Set(n.InVivo)
}

// finish records one completed request: per-kind outcome counters, latency
// histograms, and a span with queue / batch / compute sub-timings (from the
// batcher's SubmitInfo when the request rode a batch, or computeStart on
// the direct path). si must only carry data for successful batched
// requests — SubmitInfo contents are unspecified after an error.
func (o *serverObs) finish(req *request, resp *response, t0 time.Time, si *sched.SubmitInfo, computeStart time.Time) {
	if o == nil {
		return
	}
	now := time.Now()
	o.latency.Observe(now.Sub(t0).Seconds())
	span := obs.Span{
		Trace: obs.TraceID(req.Trace),
		Name:  "serve",
		ID:    req.ID,
		Start: t0,
		Dur:   now.Sub(t0),
	}
	if span.Trace == 0 {
		span.Trace = obs.NewTraceID()
	}
	if resp.Err != "" {
		o.errs[kindIndex(resp.Kind)].Inc()
		span.Err = resp.Kind.String() + ": " + resp.Err
	} else {
		o.ok.Inc()
	}
	// Stages and annotations are built here, on the stack, and handed over
	// beside the span: the ring copies them into the slot it records it in.
	var stageBuf [3]obs.Stage
	var attrBuf [2]obs.Attr
	stages, attrs := stageBuf[:0], attrBuf[:0]
	switch {
	case si != nil && si.BatchSize > 0:
		o.queue.Observe(si.QueueDelay().Seconds())
		o.compute.Observe(si.RunTime().Seconds())
		o.occupancy.Set(float64(si.BatchWeight))
		stages = append(stages,
			obs.Stage{Name: "queue", Dur: si.QueueDelay()},
			obs.Stage{Name: "batch", Dur: si.BatchDelay()},
			obs.Stage{Name: "compute", Dur: si.RunTime()})
		attrs = append(attrs,
			obs.Attr{Key: "batch_size", Val: float64(si.BatchSize)},
			obs.Attr{Key: "batch_weight", Val: float64(si.BatchWeight)})
	case !computeStart.IsZero():
		d := now.Sub(computeStart)
		o.compute.Observe(d.Seconds())
		o.occupancy.Set(1)
		stages = append(stages, obs.Stage{Name: "compute", Dur: d})
	}
	o.spans.Record(span, stages, attrs)
}
