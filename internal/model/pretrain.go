package model

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
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

// validate refuses sizes no dataset or training run can have. Zero is not
// refused: it selects the network's default.
func (c TrainConfig) validate() error {
	for _, f := range []struct {
		name  string
		value float64
	}{
		{"TrainN", float64(c.TrainN)}, {"TestN", float64(c.TestN)}, {"Epochs", float64(c.Epochs)},
		{"BatchSize", float64(c.BatchSize)}, {"LR", c.LR},
	} {
		if f.value < 0 {
			return fmt.Errorf("model: %s %v is negative (0 selects the network's default)", f.name, f.value)
		}
	}
	return nil
}

// ErrNormalizationMismatch is what Materialize returns when the training
// split it rendered does not have the (mean, std) the checkpoint recorded:
// the weights were trained on other pixels than this code generates.
var ErrNormalizationMismatch = errors.New("model: checkpoint's input normalisation does not match the dataset's")

// Pretrained bundles a trained network with its data and statistics — the
// starting point of every Shredder experiment. Shared by pointer, not copied.
type Pretrained struct {
	Spec Spec
	Net  *nn.Sequential
	// Train and Test are the normalised splits. Train and TrainCached return
	// them rendered; after Open they are nil until Materialize.
	Train *data.Dataset
	Test  *data.Dataset
	Mean  float64 // normalization applied to both splits
	Std   float64
	// Config is the configuration with the network's defaults filled in.
	Config TrainConfig

	trainRecipe, testRecipe *data.Recipe

	matOnce sync.Once
	matErr  error
	accOnce sync.Once
	acc     float64
	accErr  error
}

// Materialize renders Train and Test, each sample straight into its row, and
// normalises both by the training split's statistics — once, however many
// goroutines ask. After Open those statistics came with the weights; a
// training split that measures other bits is ErrNormalizationMismatch.
func (p *Pretrained) Materialize() error {
	p.matOnce.Do(func() {
		train, test := p.trainRecipe.Materialize(), p.testRecipe.Materialize()
		mean, std := train.Normalize()
		if p.Std == 0 {
			p.Mean, p.Std = mean, std
		} else if mean != p.Mean || std != p.Std {
			p.matErr = fmt.Errorf("%w: %s trained under (mean %v, std %v), the training split has (%v, %v)",
				ErrNormalizationMismatch, p.Spec.Name, p.Mean, p.Std, mean, std)
			return
		}
		test.ApplyNormalization(mean, std)
		p.Train, p.Test = train, test
	})
	return p.matErr
}

// TestSample renders test sample i alone: the pixels and label of
// Test.Image(i) and Test.Labels[i], bit for bit, with nothing else rendered.
func (p *Pretrained) TestSample(i int) (pixels []float64, label int) {
	img := tensor.New(p.Spec.Dataset.SampleShape()...)
	p.testRecipe.Render(i, img)
	data.ApplyNormalization(img.Data(), p.Mean, p.Std)
	return img.Data(), p.testRecipe.Label(i)
}

// TestAccuracy returns the network's accuracy on Test: one sweep of the test
// set when first asked for, once however many goroutines ask, and never at
// construction — a cold start on a warm weight cache runs no forward pass and
// compiles nothing here. It materialises the splits and panics with
// Materialize's error, or Evaluate's for a network the compiler cannot lower.
func (p *Pretrained) TestAccuracy() float64 {
	if err := p.Materialize(); err != nil {
		panic(err)
	}
	p.accOnce.Do(func() { p.acc, p.accErr = Evaluate(p.Net, p.Test, p.Config.BatchSize) })
	if p.accErr != nil {
		panic(p.accErr)
	}
	return p.acc
}

// prepare returns spec's Pretrained without a network: the configuration
// with its defaults and the recipes of its dataset split — integers, no
// pixels: what a cache hit shares with Train.
func prepare(spec Spec, cfg TrainConfig) (*Pretrained, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(spec)
	full := data.NewRecipe(spec.Dataset, cfg.TrainN+cfg.TestN, cfg.Seed+1000)
	train, test, err := full.Split(cfg.TrainN, cfg.Seed+2000)
	if err != nil {
		return nil, err
	}
	return &Pretrained{Spec: spec, Config: cfg, trainRecipe: train, testRecipe: test}, nil
}

// Train generates the benchmark's dataset and trains the network with Adam
// and cross-entropy; only a Progress writer makes it measure test accuracy.
func Train(spec Spec, cfg TrainConfig) (*Pretrained, error) {
	pre, err := prepare(spec, cfg)
	if err != nil {
		return nil, err
	}
	return pre.train()
}

// train builds p.Net with the seeded initialisation, materialises the splits
// and trains the network on them.
func (p *Pretrained) train() (*Pretrained, error) {
	p.Net = p.Spec.Build(tensor.NewRNG(p.Config.Seed))
	if err := p.Materialize(); err != nil {
		return nil, err
	}
	cfg, net := p.Config, p.Net
	opt := optim.NewAdam(net.Params(), cfg.LR)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		shuffled := p.Train.Shuffle(cfg.Seed + int64(3000+epoch))
		var epochLoss float64
		batches := shuffled.Batches(cfg.BatchSize)
		for _, b := range batches {
			// A plan packs the weights it is compiled from, and every step
			// changes them: each step compiles its own. Its pass has no RNG,
			// so Dropout draws from the generator it was built with.
			plan, err := nn.Compile(net, nn.Float64)
			if err != nil {
				return nil, fmt.Errorf("model: train %s: %w", net.Name(), err)
			}
			tp, err := plan.TrainPlan()
			if err != nil {
				return nil, err
			}
			pass := tp.NewPass(nil)
			net.ZeroGrad()
			logits := pass.ForwardInto(nil, b.Images)
			loss, grad := nn.CrossEntropy(logits, b.Labels)
			epochLoss += loss
			pass.BackwardParams(grad)
			opt.Step()
		}
		if cfg.Progress != nil {
			acc, err := Evaluate(net, p.Test, cfg.BatchSize)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(cfg.Progress, "%s epoch %d/%d: loss %.4f, test acc %.2f%%\n",
				p.Spec.Name, epoch+1, cfg.Epochs, epochLoss/float64(len(batches)), 100*acc)
		}
	}
	return p, nil
}

// Evaluate returns test-set accuracy of a network at its current weights,
// through a float64 inference plan compiled for the call — a plan is a
// snapshot of the weights it was compiled from, so one kept across training
// steps would measure stale weights; compiling packs every weight once, a
// strided copy that is nothing beside the sweep it serves. The result is the
// share of samples whose largest logit is their label (0 for an empty
// dataset); a network the compiler cannot lower is an error.
func Evaluate(net *nn.Sequential, ds *data.Dataset, batchSize int) (float64, error) {
	plan, err := nn.Compile(net, nn.Float64)
	if err != nil {
		return 0, fmt.Errorf("model: evaluate %s: %w", net.Name(), err)
	}
	if ds.N() == 0 {
		return 0, nil
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

// cachePath returns the checkpoint path for a spec/config pair. The key
// names everything the weights depend on: Split permutes all TrainN+TestN
// samples, so the training set moves with TestN too.
func cachePath(dir string, spec Spec, cfg TrainConfig) string {
	return filepath.Join(dir, fmt.Sprintf("%s-n%d-t%d-e%d-b%d-lr%g-s%d.ckpt",
		spec.Name, cfg.TrainN, cfg.TestN, cfg.Epochs, cfg.BatchSize, cfg.LR, cfg.Seed))
}

// Open returns the pre-trained network of spec without rendering a pixel
// when dir holds its checkpoint from a previous identical run: it reads the
// weights and the input normalisation they were trained under, and leaves
// Train and Test to Materialize, whenever something needs all of them
// (TestSample needs neither). A hit builds the network's shapes and loads
// into them: the seeded initialisation, which every loaded weight would
// overwrite, is not drawn. An entry that does not load — truncated, another
// network's, or of a checkpoint format that came before this one — is a
// miss: the network is built seeded and trained, which materialises the
// splits, and the entry rewritten.
func Open(spec Spec, cfg TrainConfig, dir string) (*Pretrained, error) {
	pre, err := prepare(spec, cfg)
	if err != nil {
		return nil, err
	}
	path := cachePath(dir, spec, pre.Config)
	pre.Net = spec.Build(nil)
	norm, err := nn.LoadFile(pre.Net, path)
	if err == nil {
		pre.Mean, pre.Std = norm.Mean, norm.Std
		return pre, nil
	}
	if cfg.Progress != nil && !errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintf(cfg.Progress, "%s: weight cache entry %s is unusable (%v); retraining\n", spec.Name, path, err)
	}
	if _, err := pre.train(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("model: cache dir: %w", err)
	}
	if err := nn.SaveFile(pre.Net, nn.InputNorm{Mean: pre.Mean, Std: pre.Std}, path); err != nil {
		return nil, err
	}
	return pre, nil
}

// TrainCached behaves like Train but reuses weights cached in dir from a
// previous identical run: Open, then Materialize at once. The cache keeps
// the multi-network experiment harness from re-training AlexNet for every
// figure.
func TrainCached(spec Spec, cfg TrainConfig, dir string) (*Pretrained, error) {
	pre, err := Open(spec, cfg, dir)
	if err != nil {
		return nil, err
	}
	if err := pre.Materialize(); err != nil {
		return nil, err
	}
	return pre, nil
}
