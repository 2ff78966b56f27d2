package core

import (
	"fmt"
	"math"
	"time"

	"shredder/internal/data"
	"shredder/internal/nn"
	"shredder/internal/obs"
	"shredder/internal/optim"
	"shredder/internal/tensor"
)

// NoiseConfig are the hyperparameters of one noise-training run.
type NoiseConfig struct {
	// Mu and Scale parameterize the Laplace initialization (paper §2.4).
	Mu, Scale float64
	// Lambda is the privacy knob of Eq. 3 (stored positive; the loss
	// subtracts it). Zero reproduces the paper's "privacy-agnostic"
	// baseline training of Figure 4.
	Lambda float64
	// PrivacyTarget is the in vivo privacy (1/SNR) at which λ starts
	// decaying to stabilize privacy and let accuracy recover (paper §3.2).
	// Zero disables decay.
	PrivacyTarget float64
	// LambdaDecay is the multiplicative decay applied to λ at every
	// evaluation point while above target (default 0.5).
	LambdaDecay float64
	// LR is the Adam learning rate over the noise tensor (default 0.01).
	LR float64
	// Epochs is the training length in (possibly fractional) passes over
	// the dataset — the paper trains AlexNet noise for 0.1 epoch.
	Epochs float64
	// BatchSize of noise-training minibatches (default 32).
	BatchSize int
	// Seed drives initialization and shuffling.
	Seed int64
	// SelfSupervised trains against the unnoised model's own soft
	// predictions instead of ground-truth labels (extension; ablated in
	// the benchmarks).
	SelfSupervised bool
	// Multiplicative trains the a' = a⊙w + n variant: a per-element weight
	// tensor is optimized jointly with the noise (the λ privacy term still
	// rewards only the noise magnitude).
	Multiplicative bool
	// WeightMu and WeightStd parameterize the Normal weight initialization
	// of the multiplicative variant. Defaults (1, 0.25) start near the
	// identity so short budgets begin from an unperturbed network; set
	// (0, 1) for the reference implementation's N(0, 1) start. Only read
	// when Multiplicative is set.
	WeightMu, WeightStd float64
	// EvalEvery is the iteration interval for events/λ-decay (default 10).
	EvalEvery int
	// Log, when non-nil, receives an event at every evaluation point.
	Log func(TrainEvent)
	// Run labels this run's observability events (e.g. "member-03"); it is
	// carried on every obs.TrainingEvent the Hook receives.
	Run string
	// Hook, when non-nil, receives an obs.TrainingEvent at every evaluation
	// point — the bridge into the observability layer (progress lines, CSV,
	// metrics registries) shared with the serving stack. Log and Hook are
	// independent: either, both, or neither may be set.
	Hook obs.Hook
}

func (c NoiseConfig) withDefaults() NoiseConfig {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.LambdaDecay == 0 {
		c.LambdaDecay = 0.5
	}
	if c.LR == 0 {
		c.LR = 0.01
	}
	if c.Epochs == 0 {
		c.Epochs = 1
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.EvalEvery == 0 {
		c.EvalEvery = 10
	}
	if c.Multiplicative {
		if c.WeightMu == 0 && c.WeightStd == 0 {
			c.WeightMu = 1
		}
		if c.WeightStd == 0 {
			c.WeightStd = 0.25
		}
	}
	return c
}

// TrainEvent is a snapshot of the training state at one evaluation point —
// the series plotted in the paper's Figure 4.
type TrainEvent struct {
	Iteration int
	Epoch     float64
	Loss      float64 // total Shredder loss (CE − λΣ|n|)
	CE        float64 // cross-entropy component
	NoiseL1   float64 // Σ|n|, the noise magnitude the λ term rewards
	InVivo    float64 // 1/SNR at this point
	BatchAcc  float64 // accuracy on the current batch, with noise
	Lambda    float64 // current λ (after decay)
}

// TrainResult is the outcome of one noise-training run.
type TrainResult struct {
	Noise *NoiseTensor
	// Weight is the trained multiplicative weight tensor, nil unless the
	// run had NoiseConfig.Multiplicative set.
	Weight      *NoiseTensor
	Iterations  int
	Epochs      float64 // actual epochs executed
	FinalInVivo float64
	Events      []TrainEvent
}

// dropoutSeedOffset decorrelates the dropout stream from the noise
// initialization stream derived from the same cfg.Seed.
const dropoutSeedOffset = 77_003

// trainSet is the data of noise-training runs over one Split: the dataset
// and, for runs of more than one pass over it, what frozen weights make
// per-sample constants — a_i = L(x_i) and, self-supervised, the soft target
// Softmax(R(a_i)) — computed once and read by every member of a Collect. A
// run of at most one pass (the paper's fractional-epoch budgets) would use
// each constant at most once: it keeps none and computes them batch by batch.
type trainSet struct {
	ds      *data.Dataset
	batches int            // steps in one pass over the dataset
	iters   int            // steps of a run
	acts    *tensor.Tensor // [N, act...], or nil
	targets *tensor.Tensor // [N, classes], or nil
}

// newTrainSet prepares ds for runs under cfg, which has its defaults.
func newTrainSet(split *Split, ds *data.Dataset, cfg NoiseConfig) *trainSet {
	if ds.N() == 0 {
		panic("core: TrainNoise on empty dataset")
	}
	if cfg.BatchSize < 0 {
		panic("core: batch size must be positive")
	}
	set := &trainSet{ds: ds, batches: (ds.N() + cfg.BatchSize - 1) / cfg.BatchSize}
	set.iters = max(1, int(math.Ceil(cfg.Epochs*float64(set.batches))))
	if set.iters > set.batches {
		set.acts = split.Local(ds.Images)
		if cfg.SelfSupervised {
			set.targets = split.RemoteInfer(set.acts)
			nn.SoftmaxInto(set.targets, set.targets)
		}
	}
	return set
}

// stepBufs are the tensors of one batch size. A run meets two sizes, the full
// batch and the dataset's tail, and keeps both sets, so a warm step builds
// nothing.
type stepBufs struct {
	images           *tensor.Tensor // the batch itself, where the set kept no activations
	a, aPrime        *tensor.Tensor // L(x) and what R sees
	target           *tensor.Tensor // self-supervised: the soft targets
	logits, grad, dA *tensor.Tensor // R(a′), ∂loss/∂logits, ∂loss/∂a′
	labels           []int
}

// noiseRun is the state of one TrainNoise run.
type noiseRun struct {
	split         *Split
	set           *trainSet
	cfg           NoiseConfig
	noise, weight *NoiseTensor // weight is nil unless the run is multiplicative
	opt           *optim.Adam
	pass          *nn.TrainPass // the run's private pass on R's training plan
	bufs          map[int]*stepBufs

	// Running sums behind the in vivo trace, over the steps so far: the
	// signal power E[a²] — a dataset property, so averaging it keeps the
	// trace from fluctuating with individual batches — and, in multiplicative
	// runs, the perturbation power E[(a′−a)²].
	ea2Sum, pertSum float64
	steps           int
}

func newNoiseRun(split *Split, set *trainSet, cfg NoiseConfig) *noiseRun {
	plan, err := split.RemoteTrainPlan()
	if err != nil {
		panic("core: " + err.Error())
	}
	// Clear any parameter gradients a pre-training phase left behind, so
	// the "noise training leaves weights and gradients untouched"
	// invariant holds from here on (serialized on the Split).
	split.zeroParamGrads()
	rng := tensor.NewRNG(cfg.Seed)
	r := &noiseRun{split: split, set: set, cfg: cfg, bufs: map[int]*stepBufs{},
		noise: NewNoiseTensor(split.ActivationShape(), cfg.Mu, cfg.Scale, rng)}
	params := []*nn.Param{r.noise.Param}
	if cfg.Multiplicative {
		// The weight draws from the same seeded stream, after the noise
		// init; the additive path consumes an identical stream to before.
		r.weight = NewWeightTensor(split.ActivationShape(), cfg.WeightMu, cfg.WeightStd, rng)
		params = append(params, r.weight.Param)
	}
	r.opt = optim.NewAdam(params, cfg.LR)
	// The pass has the run's own dropout stream.
	r.pass = plan.NewPass(tensor.NewRNG(cfg.Seed + dropoutSeedOffset))
	return r
}

// bufsFor returns the tensors of batch size n, building them on first use;
// the ones a pass or a plan sizes are left for it to build.
func (r *noiseRun) bufsFor(n int) *stepBufs {
	b := r.bufs[n]
	if b != nil {
		return b
	}
	batched := func(per []int) *tensor.Tensor { return tensor.New(append([]int{n}, per...)...) }
	act := r.split.ActivationShape()
	b = &stepBufs{labels: make([]int, n), a: batched(act), aPrime: batched(act)}
	if r.set.acts == nil {
		b.images = batched(r.set.ds.SampleShape())
	}
	if r.set.targets != nil {
		b.target = batched(r.set.targets.Shape()[1:])
	}
	r.bufs[n] = b
	return b
}

// gatherRows copies the rows idx of src [N, ...] into dst [len(idx), ...].
func gatherRows(dst, src *tensor.Tensor, idx []int) {
	row := src.Len() / src.Dim(0)
	dd, sd := dst.Data(), src.Data()
	for i, j := range idx {
		copy(dd[i*row:(i+1)*row], sd[j*row:(j+1)*row])
	}
}

// step is one optimisation step, shared by the additive, multiplicative and
// self-supervised modes, on the samples idx of the set: a′ from the batch's
// activations, R's training plan forward and back, the loss's gradient folded
// into the noise (and weight) and one Adam update. It returns the batch's
// cross-entropy and its tensors.
func (r *noiseRun) step(idx []int, lambda float64) (ce float64, b *stepBufs) {
	b = r.bufsFor(len(idx))
	ds := r.set.ds
	for i, j := range idx {
		b.labels[i] = ds.Labels[j]
	}
	if r.set.acts != nil {
		gatherRows(b.a, r.set.acts, idx)
		if r.set.targets != nil {
			gatherRows(b.target, r.set.targets, idx)
		}
	} else {
		gatherRows(b.images, ds.Images, idx)
		b.a = r.split.LocalInto(b.a, b.images)
		if r.cfg.SelfSupervised {
			// The soft target comes from the clean activations.
			b.target = r.split.f64.remote.InferInto(b.target, b.a)
			nn.SoftmaxInto(b.target, b.target)
		}
	}
	if r.weight != nil {
		mulAddBroadcastInto(b.aPrime, b.a, r.weight.Values(), r.noise.Values())
	} else {
		addBroadcastInto(b.aPrime, b.a, r.noise.Values())
	}

	b.logits = r.pass.ForwardInto(b.logits, b.aPrime)
	if b.grad == nil {
		b.grad = tensor.New(b.logits.Shape()...)
	}
	if r.cfg.SelfSupervised {
		ce = nn.SoftCrossEntropyInto(b.grad, b.logits, b.target)
	} else {
		ce = nn.CrossEntropyInto(b.grad, b.logits, b.labels)
	}
	b.dA = r.pass.BackwardInto(b.dA, b.grad)

	r.noise.Param.ZeroGrad()
	r.noise.AccumulateGrad(b.dA)
	AddPrivacyGrad(r.noise, lambda)
	if r.weight != nil {
		r.weight.Param.ZeroGrad()
		r.weight.AccumulateWeightGrad(b.dA, b.a)
	}
	r.opt.Step()

	r.ea2Sum += b.a.SqSum() / float64(b.a.Len())
	if r.weight != nil {
		r.pertSum += meanSqDiff(b.aPrime, b.a)
	}
	r.steps++
	return ce, b
}

// inVivo is the run's 1/SNR after the steps so far, with the signal power
// averaged over them. It is read at evaluation points and at the end of the
// run, and computed there: an additive run's noise variance is two passes
// over the tensor.
func (r *noiseRun) inVivo() float64 {
	meanEA2 := r.ea2Sum / float64(r.steps)
	if !(meanEA2 > 0) {
		return 0
	}
	if r.weight != nil {
		// Multiplicative 1/SNR uses the realized perturbation power
		// E[(a'−a)²] = E[(a⊙(w−1) + n)²] in place of the noise
		// variance: the weight scales the signal, so the noise
		// tensor's variance alone no longer measures the distortion.
		return (r.pertSum / float64(r.steps)) / meanEA2
	}
	if varN := r.noise.Values().Variance(); varN > 0 {
		return varN / meanEA2
	}
	return 0
}

// TrainNoise learns one noise tensor for the split on the given dataset.
// Network weights are left untouched: only the noise tensor is optimized
// (with Adam, as in the paper §3.2). The whole run executes in a private pass
// on R's training plan — R's parameter gradients are never even computed —
// so any number of TrainNoise calls may run concurrently over one shared
// Split. All randomness (initialization, shuffling, dropout) derives from
// cfg.Seed, making each run reproducible independent of scheduling. A
// network whose remote part has no training plan (nn.TrainPlan) panics.
func TrainNoise(split *Split, ds *data.Dataset, cfg NoiseConfig) *TrainResult {
	cfg = cfg.withDefaults()
	return trainNoise(split, newTrainSet(split, ds, cfg), cfg)
}

// trainNoise is TrainNoise on a prepared set, under a cfg that has its
// defaults: the part the members of a Collect run one each of.
func trainNoise(split *Split, set *trainSet, cfg NoiseConfig) *TrainResult {
	start := time.Now()
	r := newNoiseRun(split, set, cfg)
	lambda := cfg.Lambda
	res := &TrainResult{Noise: r.noise, Weight: r.weight}
	n, iter := set.ds.N(), 0
	for iter < set.iters {
		// Each pass visits the samples in Dataset.Shuffle's order, by index.
		perm := tensor.NewRNG(cfg.Seed + int64(10_000+iter)).Perm(n)
		for lo := 0; lo < n && iter < set.iters; lo += cfg.BatchSize {
			// An event reports the loss under the noise its step started from.
			eval, l1 := iter%cfg.EvalEvery == 0, 0.0
			if eval {
				l1 = r.noise.Values().AbsSum()
			}
			ce, b := r.step(perm[lo:min(lo+cfg.BatchSize, n)], lambda)
			if eval {
				ev := TrainEvent{
					Iteration: iter,
					Epoch:     float64(iter) / float64(set.batches),
					Loss:      ce - lambda*l1,
					CE:        ce,
					NoiseL1:   r.noise.Values().AbsSum(),
					InVivo:    r.inVivo(),
					BatchAcc:  nn.Accuracy(b.logits, b.labels),
					Lambda:    lambda,
				}
				res.Events = append(res.Events, ev)
				if cfg.Log != nil {
					cfg.Log(ev)
				}
				cfg.Hook.Emit(obs.TrainingEvent{
					Run: cfg.Run, Iteration: ev.Iteration, Epoch: ev.Epoch,
					Loss: ev.Loss, CE: ev.CE, NoiseL1: ev.NoiseL1,
					InVivo: ev.InVivo, BatchAcc: ev.BatchAcc, Lambda: ev.Lambda,
					Elapsed: time.Since(start),
				})
				// λ decay knob: once the desired in vivo privacy is
				// reached, shrink λ so privacy stabilizes and accuracy can
				// recover (paper §3.2).
				if cfg.PrivacyTarget > 0 && ev.InVivo >= cfg.PrivacyTarget {
					lambda *= cfg.LambdaDecay
				}
			}
			iter++
		}
	}
	res.Iterations = iter
	res.Epochs = float64(iter) / float64(set.batches)
	res.FinalInVivo = r.inVivo()
	if !r.noise.Values().AllFinite() {
		panic(fmt.Sprintf("core: noise diverged (non-finite values) after %d iterations", iter))
	}
	if r.weight != nil && !r.weight.Values().AllFinite() {
		panic(fmt.Sprintf("core: weight diverged (non-finite values) after %d iterations", iter))
	}
	return res
}

// meanSqDiff returns E[(x−y)²] over two equally sized tensors.
func meanSqDiff(x, y *tensor.Tensor) float64 {
	xd, yd := x.Data(), y.Data()
	s := 0.0
	for i := range xd {
		d := xd[i] - yd[i]
		s += d * d
	}
	return s / float64(len(xd))
}
