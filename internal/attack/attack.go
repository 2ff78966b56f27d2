// Package attack implements a model-inversion adversary against split
// inference: given the activation a (or noisy activation a′) transmitted to
// the cloud and white-box access to the edge network L, the attacker
// gradient-descends an input estimate x̂ to minimize ‖L(x̂) − a′‖².
//
// This operationalizes the paper's mutual-information privacy metric: when
// I(x; a′) is high the attack recovers the input well, and as Shredder
// shreds that information the reconstruction degrades. The benchmark
// harness reports reconstruction error with and without Shredder noise as
// an extension experiment (not in the paper's evaluation, but implied by
// its threat model).
package attack

import (
	"shredder/internal/core"
	"shredder/internal/nn"
	"shredder/internal/optim"
	"shredder/internal/tensor"
)

// Config controls the inversion attack.
type Config struct {
	// Steps of gradient descent (default 300).
	Steps int
	// LR is the Adam learning rate over the input estimate (default 0.05).
	LR float64
	// Seed drives the initial guess.
	Seed int64
	// Init is the standard deviation of the random initial guess
	// (default 0.5, roughly the scale of normalized inputs).
	Init float64
}

func (c Config) withDefaults() Config {
	if c.Steps == 0 {
		c.Steps = 300
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.Init == 0 {
		c.Init = 0.5
	}
	return c
}

// Result is the outcome of one inversion attempt.
type Result struct {
	// Reconstruction is the attacker's input estimate [1, C, H, W].
	Reconstruction *tensor.Tensor
	// ActivationMSE is the final ‖L(x̂) − target‖²/n — how well the
	// attacker matched the observation.
	ActivationMSE float64
	// InputMSE is ‖x̂ − x‖²/n against the true input (for evaluation; the
	// attacker does not see it).
	InputMSE float64
}

// Invert runs the inversion attack against one transmitted activation.
// target must be a single-sample activation batch [1, ...]; trueInput (may
// be nil) is used only to report InputMSE.
func Invert(split *core.Split, target *tensor.Tensor, trueInput *tensor.Tensor, cfg Config) Result {
	cfg = cfg.withDefaults()
	rng := tensor.NewRNG(cfg.Seed)
	shape := append([]int{1}, split.InShape...)
	xhat := nn.NewParam("xhat", rng.FillNormal(tensor.New(shape...), 0, cfg.Init))
	opt := optim.NewAdam([]*nn.Param{xhat}, cfg.LR)

	// The attack differentiates through frozen L: a private pass on L's
	// training plan makes the loop reentrant (concurrent inversions share one
	// Split) and computes no ∂loss/∂θ.
	plan, err := split.LocalTrainPlan()
	if err != nil {
		panic("attack: " + err.Error())
	}
	pass := plan.NewPass(tensor.NewRNG(cfg.Seed + 1))

	n := float64(target.Len())
	var lastMSE float64
	var a, dx *tensor.Tensor
	for step := 0; step < cfg.Steps; step++ {
		a = pass.ForwardInto(a, xhat.Value)
		diff := tensor.Sub(a, target)
		lastMSE = diff.SqSum() / n
		grad := diff.Scale(2 / n) // d(MSE)/da
		dx = pass.BackwardInto(dx, grad)
		xhat.ZeroGrad()
		xhat.Grad.AddInPlace(dx)
		opt.Step()
	}
	res := Result{Reconstruction: xhat.Value, ActivationMSE: lastMSE}
	if trueInput != nil {
		d := tensor.Sub(xhat.Value.Flatten(), trueInput.Flatten())
		res.InputMSE = d.SqSum() / float64(d.Len())
	}
	return res
}

// Evaluate runs the attack over the first n samples of a batch of inputs,
// once against clean activations and once against activations perturbed by
// a draw from the noise source, and returns the mean input-space MSE of
// each. A large shredded/clean ratio means the noise destroyed the
// information the attacker needs. Any deployment mode works: stored
// collections replay trained members, fitted sources sample fresh noise
// per attacked query, and fitted-mul draws joint (weight, noise) pairs —
// so the attacker faces exactly what the serving path would send.
func Evaluate(split *core.Split, inputs *tensor.Tensor, src core.NoiseSource, n int, cfg Config) (cleanMSE, shreddedMSE float64) {
	if n > inputs.Dim(0) {
		n = inputs.Dim(0)
	}
	rng := tensor.NewRNG(cfg.Seed + 1)
	for i := 0; i < n; i++ {
		x := inputs.Slice(i).Reshape(append([]int{1}, split.InShape...)...)
		a := split.Local(x)
		run := cfg
		run.Seed = cfg.Seed + int64(i)
		clean := Invert(split, a, x, run)
		cleanMSE += clean.InputMSE

		noisy := a.Clone()
		src.DrawInto(nil, rng).ApplyInPlace(noisy)
		shredded := Invert(split, noisy, x, run)
		shreddedMSE += shredded.InputMSE
	}
	return cleanMSE / float64(n), shreddedMSE / float64(n)
}
