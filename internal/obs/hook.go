package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// TrainingEvent is one evaluation-point snapshot of a noise-training run —
// the series behind the paper's Figures 3–5 (loss and cross-entropy
// components, the noise L1 norm the privacy term grows, the in vivo 1/SNR
// privacy) plus the run label and elapsed wall time.
type TrainingEvent struct {
	Run       string        // which run emitted it, e.g. "member-03"
	Iteration int           // training iteration
	Epoch     float64       // fractional epochs completed
	Loss      float64       // total Shredder loss (CE − λΣ|n|)
	CE        float64       // cross-entropy component
	NoiseL1   float64       // Σ|n|, the magnitude the privacy term grows
	InVivo    float64       // 1/SNR at this point
	BatchAcc  float64       // accuracy on the current batch, with noise
	Lambda    float64       // current λ (after decay)
	Elapsed   time.Duration // wall time since the run started
}

// Hook receives training events. A nil Hook is a valid "not subscribed"
// hook; emit through Emit so the nil case stays a no-op. Hooks must be safe
// for concurrent use when runs train in parallel (core.Collect).
type Hook func(TrainingEvent)

// Emit delivers ev unless the hook is nil.
func (h Hook) Emit(ev TrainingEvent) {
	if h != nil {
		h(ev)
	}
}

// Hooks fans one event stream out to several hooks, skipping nils. All-nil
// input collapses to a nil (no-op) hook.
func Hooks(hs ...Hook) Hook {
	live := make([]Hook, 0, len(hs))
	for _, h := range hs {
		if h != nil {
			live = append(live, h)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(ev TrainingEvent) {
		for _, h := range live {
			h(ev)
		}
	}
}

// ProgressHook renders each event as one human-readable line on w —
// the live training progress view. Safe for concurrent runs (one event is
// one write, serialized by a mutex).
func ProgressHook(w io.Writer) Hook {
	var mu sync.Mutex
	return func(ev TrainingEvent) {
		mu.Lock()
		defer mu.Unlock()
		run := ev.Run
		if run == "" {
			run = "noise"
		}
		fmt.Fprintf(w, "%s iter %4d (epoch %.2f): loss %.4f ce %.4f |n|1 %.2f 1/snr %.3f acc %.1f%% lambda %.4g [%s]\n",
			run, ev.Iteration, ev.Epoch, ev.Loss, ev.CE, ev.NoiseL1,
			ev.InVivo, 100*ev.BatchAcc, ev.Lambda, ev.Elapsed.Round(time.Millisecond))
	}
}

// CSVHook writes events as CSV rows on w (header first), producing the
// plottable curves behind Figures 3–5. Safe for concurrent runs.
func CSVHook(w io.Writer) Hook {
	var mu sync.Mutex
	headered := false
	return func(ev TrainingEvent) {
		mu.Lock()
		defer mu.Unlock()
		if !headered {
			fmt.Fprintln(w, "run,iteration,epoch,loss,ce,noise_l1,invivo,batch_acc,lambda,elapsed_s")
			headered = true
		}
		fmt.Fprintf(w, "%s,%d,%.4f,%.6f,%.6f,%.6f,%.6f,%.4f,%.6g,%.3f\n",
			ev.Run, ev.Iteration, ev.Epoch, ev.Loss, ev.CE, ev.NoiseL1,
			ev.InVivo, ev.BatchAcc, ev.Lambda, ev.Elapsed.Seconds())
	}
}
