package experiments

import (
	"fmt"
	"io"
	"sort"

	"shredder/internal/core"
)

// Fig3Point is one dot of Figure 3: the information loss achieved at a
// given accuracy loss.
type Fig3Point struct {
	// NoiseScale and Lambda identify the operating point swept.
	NoiseScale, Lambda float64
	AccLossPct         float64
	InfoLossBits       float64
	ShreddedMI         float64
	InVivo             float64
}

// Fig3Series is the accuracy–privacy frontier of one network.
type Fig3Series struct {
	Benchmark   string
	ZeroLeakage float64 // original MI in bits: the paper's "Zero Leakage" line
	BaselineAcc float64
	Points      []Fig3Point
}

// Fig3Result holds one series per benchmark (the paper's sub-figures a–d).
type Fig3Result struct {
	Series []Fig3Series
}

// fig3Sweep is the ladder of noise operating points traced per network:
// increasing initialization scale and λ push toward more privacy at more
// accuracy loss.
type fig3Op struct {
	scaleMul  float64 // multiplier on the benchmark's tuned scale
	lambdaMul float64 // multiplier on the benchmark's tuned λ
	targetMul float64 // multiplier on the privacy target
}

func fig3Ops(quick bool) []fig3Op {
	if quick {
		return []fig3Op{{0.5, 0.5, 0.5}, {1, 1, 1}, {2, 2, 2}}
	}
	return []fig3Op{
		{0.4, 0.4, 0.4},
		{1, 1, 1},
		{1.7, 1.7, 1.7},
		{2.5, 2.5, 2.5},
	}
}

// Fig3 reproduces Figure 3: for every benchmark, sweep the noise operating
// point from gentle to aggressive and record (accuracy loss, information
// loss) pairs together with the Zero Leakage line (the original MI).
func Fig3(cfg Config) (*Fig3Result, error) {
	cfg = cfg.withDefaults()
	res := &Fig3Result{}
	for _, b := range benchmarksFor(cfg) {
		pre, err := cfg.pretrained(b.Spec)
		if err != nil {
			return nil, fmt.Errorf("fig3: %s: %w", b.Spec.Name, err)
		}
		split, err := splitAt(pre, b.Spec.DefaultCut)
		if err != nil {
			return nil, err
		}
		series := Fig3Series{Benchmark: b.Spec.Name, BaselineAcc: pre.TestAccuracy()}
		for i, op := range fig3Ops(cfg.Quick) {
			nc := cfg.noiseConfig(b)
			nc.Scale *= op.scaleMul
			nc.Lambda *= op.lambdaMul
			nc.PrivacyTarget *= op.targetMul
			nc.Seed = cfg.Seed + int64(i)*101
			col := core.Collect(split, pre.Train, nc, cfg.sweepCollectionSize(), cfg.Workers)
			ev := core.Evaluate(split, pre.Test, col, core.EvalConfig{MI: cfg.miOptions(), Seed: cfg.Seed + int64(i)})
			if series.ZeroLeakage == 0 {
				series.ZeroLeakage = ev.OrigMI
			}
			series.Points = append(series.Points, Fig3Point{
				NoiseScale:   nc.Scale,
				Lambda:       nc.Lambda,
				AccLossPct:   ev.AccLossPct,
				InfoLossBits: ev.MILossBits,
				ShreddedMI:   ev.ShreddedMI,
				InVivo:       ev.InVivo,
			})
			cfg.logf("fig3: %s scale=%.2f λ=%.4g → acc loss %.2f%%, info loss %.1f bits",
				b.Spec.Name, nc.Scale, nc.Lambda, ev.AccLossPct, ev.MILossBits)
		}
		sort.Slice(series.Points, func(i, j int) bool {
			return series.Points[i].AccLossPct < series.Points[j].AccLossPct
		})
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// Render writes the frontier series in the paper's axes (accuracy loss on
// X, information loss in bits on Y, Zero Leakage as reference).
func (r *Fig3Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 3: Accuracy-Privacy trade-off, cut at the last convolution layer.")
	for _, s := range r.Series {
		fmt.Fprintf(w, "\n(%s)  Zero Leakage = %.2f bits, baseline accuracy = %.2f%%\n",
			s.Benchmark, s.ZeroLeakage, 100*s.BaselineAcc)
		fmt.Fprintf(w, "  %14s %20s %16s %10s\n", "AccLoss(%)", "InfoLoss(bits)", "ShreddedMI", "1/SNR")
		for _, p := range s.Points {
			fmt.Fprintf(w, "  %14.2f %20.2f %16.2f %10.3f\n",
				p.AccLossPct, p.InfoLossBits, p.ShreddedMI, p.InVivo)
		}
	}
}
