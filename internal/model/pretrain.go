package model

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"shredder/internal/data"
	"shredder/internal/nn"
	"shredder/internal/optim"
	"shredder/internal/tensor"
)

// TrainConfig controls pre-training of a benchmark network. Shredder never
// retrains these weights; pre-training stands in for the paper's published
// pre-trained models.
type TrainConfig struct {
	// TrainN and TestN are dataset sizes; zero selects the benchmark
	// defaults.
	TrainN, TestN int
	// Epochs of pre-training (0 = default).
	Epochs int
	// BatchSize of pre-training minibatches (0 = default 32).
	BatchSize int
	// LR is the Adam learning rate (0 = default 1e-3).
	LR float64
	// Seed drives weight init, data generation and shuffling.
	Seed int64
	// Progress, when non-nil, receives one line per epoch.
	Progress io.Writer
}

func (c TrainConfig) withDefaults(spec Spec) TrainConfig {
	if c.TrainN == 0 {
		switch spec.Name {
		case "lenet":
			c.TrainN = 2400
		case "alexnet":
			c.TrainN = 1200
		default:
			c.TrainN = 1600
		}
	}
	if c.TestN == 0 {
		if spec.Name == "alexnet" {
			c.TestN = 400
		} else {
			c.TestN = 600
		}
	}
	if c.Epochs == 0 {
		switch spec.Name {
		case "lenet":
			c.Epochs = 6
		case "alexnet":
			c.Epochs = 4
		default:
			c.Epochs = 4
		}
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.LR == 0 {
		// The deeper AlexNet stack needs a hotter Adam rate to learn the
		// 20-class scenes task in few epochs.
		if spec.Name == "alexnet" {
			c.LR = 3e-3
		} else {
			c.LR = 1e-3
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Pretrained bundles a trained network with its data and statistics — the
// starting point of every Shredder experiment. Shared by pointer, not copied.
type Pretrained struct {
	Spec   Spec
	Net    *nn.Sequential
	Train  *data.Dataset
	Test   *data.Dataset
	Mean   float64 // normalization applied to both splits
	Std    float64
	Config TrainConfig

	plan    *nn.CompiledNet // float64 plan over Net, compiled at construction
	accOnce sync.Once
	acc     float64
}

// TestAccuracy returns the network's accuracy on Test: one sweep of the test
// set when first asked for, once however many goroutines ask, and never at
// construction — a cold start on a warm weight cache runs no forward pass.
func (p *Pretrained) TestAccuracy() float64 {
	p.accOnce.Do(func() { p.acc = evaluate(p.plan, p.Test, p.Config.BatchSize) })
	return p.acc
}

// prepare builds the untrained network of spec and its normalised dataset
// split, the part of Train a cache hit repeats (deterministic in the seed).
func prepare(spec Spec, cfg TrainConfig) *Pretrained {
	net := spec.Build(tensor.NewRNG(cfg.Seed))
	full := spec.Dataset.Generate(cfg.TrainN+cfg.TestN, cfg.Seed+1000)
	train, test := full.Split(cfg.TrainN, cfg.Seed+2000)
	mean, std := train.Normalize()
	test.ApplyNormalization(mean, std)
	return &Pretrained{Spec: spec, Net: net, Train: train, Test: test, Mean: mean, Std: std, Config: cfg}
}

// compile gives p the plan TestAccuracy runs, once Net's weights are final.
// A network the compiler cannot lower fails here, not when accuracy is asked.
func (p *Pretrained) compile() (*Pretrained, error) {
	plan, err := nn.Compile(p.Net, nn.Float64)
	if err != nil {
		return nil, fmt.Errorf("model: compile %s: %w", p.Net.Name(), err)
	}
	p.plan = plan
	return p, nil
}

// Train generates the benchmark's dataset and trains the network with Adam
// and cross-entropy; only a Progress writer makes it measure test accuracy.
func Train(spec Spec, cfg TrainConfig) (*Pretrained, error) {
	cfg = cfg.withDefaults(spec)
	pre := prepare(spec, cfg)
	net := pre.Net
	opt := optim.NewAdam(net.Params(), cfg.LR)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		shuffled := pre.Train.Shuffle(cfg.Seed + int64(3000+epoch))
		var epochLoss float64
		batches := shuffled.Batches(cfg.BatchSize)
		for _, b := range batches {
			net.ZeroGrad()
			logits := net.Forward(b.Images, true)
			loss, grad := nn.CrossEntropy(logits, b.Labels)
			epochLoss += loss
			net.Backward(grad)
			opt.Step()
		}
		if cfg.Progress != nil {
			acc, err := Evaluate(net, pre.Test, cfg.BatchSize)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(cfg.Progress, "%s epoch %d/%d: loss %.4f, test acc %.2f%%\n",
				spec.Name, epoch+1, cfg.Epochs, epochLoss/float64(len(batches)), 100*acc)
		}
	}
	return pre.compile()
}

// Evaluate returns test-set accuracy of a network at its current weights,
// through a float64 inference plan compiled for the call (microseconds: the
// plan reads the network's own weight storage). A network the compiler
// cannot lower is an error.
func Evaluate(net *nn.Sequential, ds *data.Dataset, batchSize int) (float64, error) {
	plan, err := nn.Compile(net, nn.Float64)
	if err != nil {
		return 0, fmt.Errorf("model: evaluate %s: %w", net.Name(), err)
	}
	return evaluate(plan, ds, batchSize), nil
}

// evaluate is one sweep of ds through plan: the share of samples whose
// largest logit is their label (0 for an empty dataset).
func evaluate(plan *nn.CompiledNet, ds *data.Dataset, batchSize int) float64 {
	if ds.N() == 0 {
		return 0
	}
	correct := 0
	for _, b := range ds.Batches(batchSize) {
		logits := plan.Infer(b.Images)
		for i, y := range b.Labels {
			if logits.Slice(i).Argmax() == y {
				correct++
			}
		}
	}
	return float64(correct) / float64(ds.N())
}

// cachePath returns the checkpoint path for a spec/config pair. The key
// names everything the weights depend on: Split permutes all TrainN+TestN
// samples, so the training set moves with TestN too.
func cachePath(dir string, spec Spec, cfg TrainConfig) string {
	return filepath.Join(dir, fmt.Sprintf("%s-n%d-t%d-e%d-b%d-lr%g-s%d.gob",
		spec.Name, cfg.TrainN, cfg.TestN, cfg.Epochs, cfg.BatchSize, cfg.LR, cfg.Seed))
}

// TrainCached behaves like Train but reuses weights cached in dir from a
// previous identical run, regenerating only the datasets (which are
// deterministic in the seed). The cache keeps the multi-network experiment
// harness from re-training AlexNet for every figure. An entry that does not
// load — truncated, or another network's — is a miss: the network is
// retrained and the entry rewritten.
func TrainCached(spec Spec, cfg TrainConfig, dir string) (*Pretrained, error) {
	cfg = cfg.withDefaults(spec)
	path := cachePath(dir, spec, cfg)
	if _, err := os.Stat(path); err == nil {
		pre := prepare(spec, cfg)
		if err = nn.LoadFile(pre.Net, path); err == nil {
			return pre.compile()
		}
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "%s: weight cache entry %s is unusable (%v); retraining\n", spec.Name, path, err)
		}
	}
	pre, err := Train(spec, cfg)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("model: cache dir: %w", err)
	}
	if err := nn.SaveFile(pre.Net, path); err != nil {
		return nil, err
	}
	return pre, nil
}
