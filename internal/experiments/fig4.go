package experiments

import (
	"fmt"
	"io"

	"shredder/internal/core"
	"shredder/internal/model"
)

// Fig4Result holds the training-dynamics traces of Figure 4: in vivo
// privacy and accuracy per iteration for Shredder's loss (orange lines)
// versus privacy-agnostic plain cross-entropy training (black lines), on
// AlexNet cut at the last convolution layer.
type Fig4Result struct {
	Benchmark string
	Shredder  []core.TrainEvent
	Regular   []core.TrainEvent
}

// Fig4 reproduces Figure 4 by training two noise tensors from the same
// Laplace initialization: one with the Shredder loss (λ > 0 with the decay
// knob), one with λ = 0 (the "Privacy Agnostic (Regular)" baseline).
func Fig4(cfg Config) (*Fig4Result, error) {
	cfg = cfg.withDefaults()
	name := "alexnet"
	if len(cfg.Networks) == 1 {
		name = cfg.Networks[0] // allow cheaper networks in tests
	}
	b, err := model.BenchmarkByName(name)
	if err != nil {
		return nil, err
	}
	pre, err := cfg.pretrained(b.Spec)
	if err != nil {
		return nil, fmt.Errorf("fig4: %w", err)
	}
	split, err := splitAt(pre, b.Spec.DefaultCut)
	if err != nil {
		return nil, err
	}

	res := &Fig4Result{Benchmark: b.Spec.Name}
	base := cfg.noiseConfig(b)
	base.EvalEvery = 5
	if cfg.Quick {
		base.EvalEvery = 2
	}
	// The dynamics need enough iterations for the trends to separate: the
	// λ=0 baseline's noise shrinks gradually under pure CE pressure.
	if base.Epochs < 2 {
		base.Epochs = 2
	}

	cfg.logf("fig4: training %s noise with Shredder loss (λ=%g)", b.Spec.Name, base.Lambda)
	shredderCfg := base
	shredderCfg.Log = nil
	resShredder := core.TrainNoise(split, pre.Train, shredderCfg)
	res.Shredder = resShredder.Events

	cfg.logf("fig4: training %s noise privacy-agnostic (λ=0)", b.Spec.Name)
	regularCfg := base
	regularCfg.Lambda = 0
	regularCfg.PrivacyTarget = 0
	resRegular := core.TrainNoise(split, pre.Train, regularCfg)
	res.Regular = resRegular.Events
	return res, nil
}

// Render writes the two traces side by side: iteration, in vivo privacy
// and batch accuracy for both training modes (the paper's 4a and 4b).
func (r *Fig4Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 4: In vivo privacy and accuracy per training iteration (%s, last conv cut).\n", r.Benchmark)
	fmt.Fprintf(w, "  %10s %16s %16s %14s %14s\n",
		"iteration", "shredder 1/SNR", "regular 1/SNR", "shredder acc", "regular acc")
	n := len(r.Shredder)
	if len(r.Regular) < n {
		n = len(r.Regular)
	}
	for i := 0; i < n; i++ {
		s, g := r.Shredder[i], r.Regular[i]
		fmt.Fprintf(w, "  %10d %16.4f %16.4f %13.1f%% %13.1f%%\n",
			s.Iteration, s.InVivo, g.InVivo, 100*s.BatchAcc, 100*g.BatchAcc)
	}
}
