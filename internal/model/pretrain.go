package model

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

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
// starting point of every Shredder experiment.
type Pretrained struct {
	Spec    Spec
	Net     *nn.Sequential
	Train   *data.Dataset
	Test    *data.Dataset
	TestAcc float64
	Mean    float64 // normalization applied to both splits
	Std     float64
	Config  TrainConfig
}

// Train generates the benchmark's dataset, trains the network with Adam and
// cross-entropy, and reports test accuracy.
func Train(spec Spec, cfg TrainConfig) (*Pretrained, error) {
	cfg = cfg.withDefaults(spec)
	rng := tensor.NewRNG(cfg.Seed)
	net := spec.Build(rng)

	full := spec.Dataset.Generate(cfg.TrainN+cfg.TestN, cfg.Seed+1000)
	train, test := full.Split(cfg.TrainN, cfg.Seed+2000)
	mean, std := train.Normalize()
	test.ApplyNormalization(mean, std)

	opt := optim.NewAdam(net.Params(), cfg.LR)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		shuffled := train.Shuffle(cfg.Seed + int64(3000+epoch))
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
			acc, err := Evaluate(net, test, cfg.BatchSize)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(cfg.Progress, "%s epoch %d/%d: loss %.4f, test acc %.2f%%\n",
				spec.Name, epoch+1, cfg.Epochs, epochLoss/float64(len(batches)), 100*acc)
		}
	}
	acc, err := Evaluate(net, test, cfg.BatchSize)
	if err != nil {
		return nil, err
	}
	return &Pretrained{
		Spec: spec, Net: net, Train: train, Test: test,
		TestAcc: acc, Mean: mean, Std: std, Config: cfg,
	}, nil
}

// Evaluate returns test-set accuracy of a network at its current weights,
// through a float64 inference plan compiled for the call (microseconds: the
// plan reads the network's own weight storage). A network the compiler
// cannot lower is an error.
func Evaluate(net *nn.Sequential, ds *data.Dataset, batchSize int) (float64, error) {
	if ds.N() == 0 {
		return 0, nil
	}
	plan, err := nn.Compile(net, nn.Float64)
	if err != nil {
		return 0, fmt.Errorf("model: evaluate %s: %w", net.Name(), err)
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
	return float64(correct) / float64(ds.N()), nil
}

// cachePath returns the checkpoint path for a spec/config pair.
func cachePath(dir string, spec Spec, cfg TrainConfig) string {
	return filepath.Join(dir, fmt.Sprintf("%s-n%d-e%d-s%d.gob", spec.Name, cfg.TrainN, cfg.Epochs, cfg.Seed))
}

// TrainCached behaves like Train but reuses weights cached in dir from a
// previous identical run, regenerating only the datasets (which are
// deterministic in the seed). The cache keeps the multi-network experiment
// harness from re-training AlexNet for every figure.
func TrainCached(spec Spec, cfg TrainConfig, dir string) (*Pretrained, error) {
	cfg = cfg.withDefaults(spec)
	path := cachePath(dir, spec, cfg)
	if _, err := os.Stat(path); err != nil {
		pre, err := Train(spec, cfg)
		if err != nil {
			return nil, err
		}
		if mkErr := os.MkdirAll(dir, 0o755); mkErr != nil {
			return nil, fmt.Errorf("model: cache dir: %w", mkErr)
		}
		if saveErr := nn.SaveFile(pre.Net, path); saveErr != nil {
			return nil, saveErr
		}
		return pre, nil
	}
	// Cache hit: rebuild datasets and load weights.
	rng := tensor.NewRNG(cfg.Seed)
	net := spec.Build(rng)
	if err := nn.LoadFile(net, path); err != nil {
		return nil, err
	}
	full := spec.Dataset.Generate(cfg.TrainN+cfg.TestN, cfg.Seed+1000)
	train, test := full.Split(cfg.TrainN, cfg.Seed+2000)
	mean, std := train.Normalize()
	test.ApplyNormalization(mean, std)
	acc, err := Evaluate(net, test, cfg.BatchSize)
	if err != nil {
		return nil, err
	}
	return &Pretrained{
		Spec: spec, Net: net, Train: train, Test: test,
		TestAcc: acc, Mean: mean, Std: std, Config: cfg,
	}, nil
}
