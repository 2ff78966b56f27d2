package shredder

import (
	"fmt"

	"shredder/internal/attack"
)

// AttackReport quantifies resistance to a model-inversion adversary: the
// mean squared error of the attacker's input reconstruction from clean
// activations versus Shredder-noised activations. A Ratio well above 1
// means the learned noise destroyed the information the attacker needs.
type AttackReport struct {
	CleanMSE    float64 // reconstruction error from raw activations
	ShreddedMSE float64 // reconstruction error from noisy activations
	Ratio       float64 // ShreddedMSE / CleanMSE
}

// String renders the report.
func (r AttackReport) String() string {
	return fmt.Sprintf("inversion attack: clean MSE %.4f, shredded MSE %.4f (%.1fx harder)",
		r.CleanMSE, r.ShreddedMSE, r.Ratio)
}

// GalleryReport quantifies resistance to an identification adversary who
// matches an observed activation against a gallery of candidate inputs.
type GalleryReport struct {
	Trials    int
	CleanTop1 float64 // identification rate from raw activations
	NoisyTop1 float64 // identification rate with Shredder noise
}

// String renders the report.
func (r GalleryReport) String() string {
	return fmt.Sprintf("gallery attack over %d trials: clean top-1 %.0f%%, shredded top-1 %.0f%%",
		r.Trials, 100*r.CleanTop1, 100*r.NoisyTop1)
}

// GalleryAttack runs the identification attack over trials test samples
// (using the whole test set as the adversary's gallery), with and without
// the learned noise. LearnNoise or LoadNoise must have been called. Like
// AttackResistance, the attack faces the *deployed* noise source.
func (s *System) GalleryAttack(trials int) (GalleryReport, error) {
	if !s.HasNoise() {
		return GalleryReport{}, fmt.Errorf("shredder: GalleryAttack before LearnNoise/LoadNoise")
	}
	pre, err := s.materialized()
	if err != nil {
		return GalleryReport{}, err
	}
	clean := attack.GalleryIdentify(s.split, pre.Test.Images, nil, trials, s.seed)
	noisy := attack.GalleryIdentify(s.split, pre.Test.Images, s.edge.Source, trials, s.seed)
	return GalleryReport{Trials: clean.Trials, CleanTop1: clean.Top1, NoisyTop1: noisy.Top1}, nil
}

// AttackResistance runs a white-box inversion attack (gradient descent on
// the input to match the observed activation) against n test samples, with
// and without the learned noise, and reports the reconstruction errors.
// steps controls attack strength (0 = default 300). LearnNoise must have
// been called. This is an extension beyond the paper's evaluation that
// makes the mutual-information metric concrete.
//
// The attack faces the *deployed* noise source — stored replay, fitted
// per-query sampling, or multiplicative fitted-mul — exactly as the
// serving path would apply it.
func (s *System) AttackResistance(n, steps int) (AttackReport, error) {
	if !s.HasNoise() {
		return AttackReport{}, fmt.Errorf("shredder: AttackResistance before LearnNoise/LoadNoise")
	}
	pre, err := s.materialized()
	if err != nil {
		return AttackReport{}, err
	}
	clean, shredded := attack.Evaluate(s.split, pre.Test.Images, s.edge.Source, n,
		attack.Config{Steps: steps, Seed: s.seed})
	rep := AttackReport{CleanMSE: clean, ShreddedMSE: shredded}
	if clean > 0 {
		rep.Ratio = shredded / clean
	}
	return rep, nil
}
