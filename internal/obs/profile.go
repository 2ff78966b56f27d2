package obs

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// DefProfileBuckets are the default per-layer compute-time histogram bounds,
// in seconds: layer steps run from sub-10µs activations to multi-millisecond
// convolutions, one decade below DefLatencyBuckets' round-trip range.
var DefProfileBuckets = []float64{
	1e-6, 2e-6, 5e-6, 10e-6, 20e-6, 50e-6, 100e-6, 200e-6, 500e-6,
	1e-3, 2e-3, 5e-3, 10e-3, 20e-3, 50e-3, 0.1, 0.2, 0.5, 1,
}

// Profiler accumulates per-layer compute cost: forward/backward call counts,
// wall time, and scratch-tensor bytes, keyed by layer name in first-seen
// (execution) order. It implements nn's Profiler interface structurally, so
// it plugs into Sequential.SetProfiler without nn importing obs. When built over a non-nil Registry it also feeds per-layer latency
// histograms (profile.forward_seconds.<layer>, profile.backward_seconds.
// <layer>) so quantiles show up in /debug/metrics alongside the table.
//
// All methods are safe for concurrent use, and safe on a nil receiver (the
// disabled contract shared by the rest of the package).
type Profiler struct {
	reg *Registry

	mu    sync.RWMutex
	idx   map[string]*layerProf
	order []*layerProf
}

// layerProf is the accumulator for one layer (or named region).
type layerProf struct {
	name               string
	fwdCalls, bwdCalls atomic.Int64
	fwdNs, bwdNs       atomic.Int64
	scratch            atomic.Int64
	fwdHist, bwdHist   *Histogram // nil when the profiler has no registry
}

// NewProfiler creates a profiler. reg may be nil: the cumulative table
// still accumulates, only the per-layer registry histograms are skipped.
func NewProfiler(reg *Registry) *Profiler {
	return &Profiler{reg: reg, idx: map[string]*layerProf{}}
}

// layer returns the accumulator for name, creating it on first sight.
func (p *Profiler) layer(name string) *layerProf {
	p.mu.RLock()
	lp := p.idx[name]
	p.mu.RUnlock()
	if lp != nil {
		return lp
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if lp = p.idx[name]; lp != nil {
		return lp
	}
	lp = &layerProf{name: name}
	if p.reg != nil {
		lp.fwdHist = p.reg.Histogram("profile.forward_seconds."+name, DefProfileBuckets...)
		lp.bwdHist = p.reg.Histogram("profile.backward_seconds."+name, DefProfileBuckets...)
	}
	p.idx[name] = lp
	p.order = append(p.order, lp)
	return lp
}

// ObserveLayer records one layer step. It is the nn-side profiling hook:
// layer is the layer name, backward selects the direction, d the step's
// wall time, and scratchBytes the bytes of the tensor the step produced.
func (p *Profiler) ObserveLayer(layer string, backward bool, d time.Duration, scratchBytes int64) {
	if p == nil {
		return
	}
	lp := p.layer(layer)
	lp.scratch.Add(scratchBytes)
	if backward {
		lp.bwdCalls.Add(1)
		lp.bwdNs.Add(int64(d))
		lp.bwdHist.Observe(d.Seconds())
	} else {
		lp.fwdCalls.Add(1)
		lp.fwdNs.Add(int64(d))
		lp.fwdHist.Observe(d.Seconds())
	}
}

// Track times an arbitrary named region through the same accumulator: it
// returns a stop function that records the elapsed time as one forward call
// of the region and returns it. Callers that only want the side effect can
// discard the duration. Usable on a nil profiler (records nothing, still
// returns the elapsed time).
func (p *Profiler) Track(name string) func() time.Duration {
	t0 := time.Now()
	return func() time.Duration {
		d := time.Since(t0)
		p.ObserveLayer(name, false, d, 0)
		return d
	}
}

// LayerProfile is the cumulative cost of one layer, as reported by Table.
type LayerProfile struct {
	Layer         string        `json:"layer"`
	ForwardCalls  int64         `json:"forward_calls"`
	ForwardTotal  time.Duration `json:"forward_ns"`
	BackwardCalls int64         `json:"backward_calls,omitempty"`
	BackwardTotal time.Duration `json:"backward_ns,omitempty"`
	ScratchBytes  int64         `json:"scratch_bytes"`
}

// ForwardMean returns the mean forward step time (0 with no calls).
func (lp LayerProfile) ForwardMean() time.Duration {
	if lp.ForwardCalls == 0 {
		return 0
	}
	return lp.ForwardTotal / time.Duration(lp.ForwardCalls)
}

// BackwardMean returns the mean backward step time (0 with no calls).
func (lp LayerProfile) BackwardMean() time.Duration {
	if lp.BackwardCalls == 0 {
		return 0
	}
	return lp.BackwardTotal / time.Duration(lp.BackwardCalls)
}

// Table snapshots the per-layer totals in execution (first-seen) order.
// Nil-safe: a nil profiler returns an empty table.
func (p *Profiler) Table() []LayerProfile {
	if p == nil {
		return nil
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]LayerProfile, 0, len(p.order))
	for _, lp := range p.order {
		out = append(out, LayerProfile{
			Layer:         lp.name,
			ForwardCalls:  lp.fwdCalls.Load(),
			ForwardTotal:  time.Duration(lp.fwdNs.Load()),
			BackwardCalls: lp.bwdCalls.Load(),
			BackwardTotal: time.Duration(lp.bwdNs.Load()),
			ScratchBytes:  lp.scratch.Load(),
		})
	}
	return out
}

// Reset zeroes every accumulator while keeping layer identity and any
// registered histograms (histogram contents are append-only and are not
// cleared — Reset is for re-timing within one process, as the profile
// subcommand does between warm-up and measurement).
func (p *Profiler) Reset() {
	if p == nil {
		return
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, lp := range p.order {
		lp.fwdCalls.Store(0)
		lp.bwdCalls.Store(0)
		lp.fwdNs.Store(0)
		lp.bwdNs.Store(0)
		lp.scratch.Store(0)
	}
}

// WriteTable renders the cumulative profile as an aligned text table with a
// totals row, including each layer's share of total forward time.
func (p *Profiler) WriteTable(w io.Writer) {
	table := p.Table()
	var totFwd, totBwd time.Duration
	var totScratch int64
	for _, lp := range table {
		totFwd += lp.ForwardTotal
		totBwd += lp.BackwardTotal
		totScratch += lp.ScratchBytes
	}
	fmt.Fprintf(w, "%-16s %9s %12s %12s %6s %9s %12s %10s\n",
		"layer", "fwd n", "fwd total", "fwd mean", "fwd%", "bwd n", "bwd total", "scratch")
	for _, lp := range table {
		share := 0.0
		if totFwd > 0 {
			share = 100 * float64(lp.ForwardTotal) / float64(totFwd)
		}
		fmt.Fprintf(w, "%-16s %9d %12s %12s %5.1f%% %9d %12s %10s\n",
			lp.Layer, lp.ForwardCalls, fmtDur(lp.ForwardTotal), fmtDur(lp.ForwardMean()),
			share, lp.BackwardCalls, fmtDur(lp.BackwardTotal), fmtBytes(lp.ScratchBytes))
	}
	fmt.Fprintf(w, "%-16s %9s %12s %12s %6s %9s %12s %10s\n",
		"TOTAL", "", fmtDur(totFwd), "", "", "", fmtDur(totBwd), fmtBytes(totScratch))
}

// WriteCSV writes the cumulative profile as CSV with a header row.
func (p *Profiler) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"layer", "fwd_calls", "fwd_total_s", "fwd_mean_s",
		"bwd_calls", "bwd_total_s", "bwd_mean_s", "scratch_bytes",
	}); err != nil {
		return err
	}
	for _, lp := range p.Table() {
		rec := []string{
			lp.Layer,
			strconv.FormatInt(lp.ForwardCalls, 10),
			strconv.FormatFloat(lp.ForwardTotal.Seconds(), 'g', -1, 64),
			strconv.FormatFloat(lp.ForwardMean().Seconds(), 'g', -1, 64),
			strconv.FormatInt(lp.BackwardCalls, 10),
			strconv.FormatFloat(lp.BackwardTotal.Seconds(), 'g', -1, 64),
			strconv.FormatFloat(lp.BackwardMean().Seconds(), 'g', -1, 64),
			strconv.FormatInt(lp.ScratchBytes, 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// fmtDur rounds a duration to a display-friendly precision.
func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < time.Millisecond:
		return d.Round(100 * time.Nanosecond).String()
	case d < time.Second:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Millisecond).String()
	}
}

// fmtBytes renders a byte count with a binary-prefix unit.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
