package nn_test

import (
	"strings"
	"testing"

	"shredder/internal/model"
	"shredder/internal/nn"
	"shredder/internal/optim"
	"shredder/internal/race"
	"shredder/internal/tensor"
)

// trainStepWant is one step of a training plan's oracle: the input, the
// output, the output gradient drawn, the input gradient, and every parameter
// gradient of the range after the step added to a drawn starting value.
type trainStepWant struct {
	x, y, grad, dx *tensor.Tensor
	dw             []*tensor.Tensor
}

// rangeParams returns the parameters of layers [from, to).
func rangeParams(net *nn.Sequential, from, to int) []*nn.Param {
	var ps []*nn.Param
	for _, l := range net.Layers()[from:to] {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// drawGrads fills every gradient of ps with draws from a generator seeded
// with seed: a backward pass adds to what is there, so what it adds to is
// pinned too.
func drawGrads(ps []*nn.Param, seed int64) {
	rng := tensor.NewRNG(seed)
	for _, p := range ps {
		rng.FillNormal(p.Grad, 0, 1)
	}
}

// tapeSteps is the oracle of a training plan: for each batch size in turn,
// ForwardRangeT in training mode and BackwardRangeT of a drawn gradient on
// one tape, whose dropout stream starts at seed and runs on from step to step
// as a run's does. With grads the tape records, and every parameter gradient
// of the range is kept; without, it is frozen. The input gradient is the same
// either way: the tape computes it alike whether or not it adds weight
// gradients.
func tapeSteps(net *nn.Sequential, in []int, from, to int, seed int64, batches []int, grads bool) []trainStepWant {
	tape := nn.NewFrozenTape()
	var params []*nn.Param
	if grads {
		tape, params = nn.NewTape(), rangeParams(net, from, to)
	}
	tape.RNG = tensor.NewRNG(seed)
	rng := tensor.NewRNG(seed + 1)
	steps := make([]trainStepWant, len(batches))
	for i, batch := range batches {
		w := &steps[i]
		w.x = rng.FillNormal(tensor.New(append([]int{batch}, in...)...), 0, 1)
		tape.Reset()
		w.y = net.ForwardRangeT(tape, w.x, from, to, true)
		w.grad = rng.FillNormal(tensor.New(w.y.Shape()...), 0, 1)
		drawGrads(params, seed+int64(i))
		w.dx = net.BackwardRangeT(tape, w.grad, from, to)
		for _, p := range params {
			w.dw = append(w.dw, p.Grad.Clone())
		}
	}
	return steps
}

// TestTrainPlanEqualsTapeBitwise: for every zoo network, every cut the
// registry names and batch sizes 1, 3 and 32, the training plan of the local
// range (the inversion attack's), of the remote range (noise training's) and
// of the whole network (pre-training's) gives the tape's training-mode
// output, input gradient and weight gradients bit for bit, under the vector
// leaf and under the Go one — Dropout masks, drawn before the samples fan
// out, included (cifar, alexnet). BackwardInto leaves every weight gradient
// as it was; BackwardParams adds to each what the recording tape adds. The
// steps of a range go through one pass, so its reuse across batch sizes is
// pinned too. Under the race detector, which is after the fan-out and not the
// arithmetic, the 32-sample step is left out, and the weight gradients are
// compared at the default cut and over the whole network only: the tape's
// side of the rest takes minutes there.
func TestTrainPlanEqualsTapeBitwise(t *testing.T) {
	batches := []int{3, 1, 32, 3}
	if race.Enabled {
		batches = []int{3, 1, 3}
	}
	for _, spec := range model.All() {
		t.Run(spec.Name, func(t *testing.T) {
			oracle := map[[2]int][]trainStepWant{} // the tape does not run the leaf
			nn.UnderEachLeaf(t, func(t *testing.T) {
				net, _ := zooInput(spec, 1)
				ranges := map[[2]int]bool{{0, net.Len()}: true} // → compare the weight gradients
				for _, cp := range spec.CutPoints {
					cut := net.Index(cp.Layer) + 1
					grads := !race.Enabled || cp.Name == spec.DefaultCut
					ranges[[2]int{0, cut}], ranges[[2]int{cut, net.Len()}] = grads, grads
				}
				for r, grads := range ranges {
					const seed = 51
					if oracle[r] == nil {
						oracle[r] = tapeSteps(net, net.OutShapeAt(spec.Dataset.SampleShape(), r[0]), r[0], r[1], seed, batches, grads)
					}
					tp, err := mustCompile(t, net, r[0], r[1], nn.Float64).TrainPlan()
					if err != nil {
						t.Fatal(err)
					}
					var params []*nn.Param
					if grads {
						params = rangeParams(net, r[0], r[1])
					}
					pass := tp.NewPass(tensor.NewRNG(seed))
					for i, w := range oracle[r] {
						if y := pass.ForwardInto(nil, w.x); !tensor.BitEqual(y, w.y) {
							t.Fatalf("layers %v step %d (batch %d): output differs from the tape's", r, i, batches[i])
						}
						drawGrads(params, seed+int64(i))
						if dx := pass.BackwardInto(nil, w.grad); !tensor.BitEqual(dx, w.dx) {
							t.Fatalf("layers %v step %d (batch %d): input gradient differs from the tape's", r, i, batches[i])
						}
						if !grads {
							continue
						}
						pass.BackwardParams(w.grad)
						for j, p := range params {
							if !tensor.BitEqual(p.Grad, w.dw[j]) {
								t.Fatalf("layers %v step %d (batch %d): %s gradient differs from the tape's", r, i, batches[i], p.Name)
							}
						}
					}
				}
			})
		})
	}
}

// TestTrainPlanRefusals: training is float64.
func TestTrainPlanRefusals(t *testing.T) {
	rng := tensor.NewRNG(3)
	net := nn.NewSequential("f32",
		nn.NewConv2D("conv0", 1, 2, 3, 3, 1, 1, rng),
		nn.NewReLU("relu0"),
		nn.NewMaxPool2D("pool0", 2, 2),
	)
	if _, err := mustCompile(t, net, 2, 3, nn.Float32).TrainPlan(); err == nil {
		t.Error("a float32 plan handed out a training plan")
	}
}

// A network built with no RNG has Dropouts without a generator of their
// own: a pass given none either refuses up front, naming the layer, or — on
// a range holding no Dropout — runs; a pass given one trains through them.
func TestNewPassRefusesDropoutWithoutGenerator(t *testing.T) {
	spec := model.AlexNet()
	net := spec.Build(nil)
	tp, err := mustCompile(t, net, 0, net.Len(), nn.Float64).TrainPlan()
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "dropout drop ") || !strings.Contains(msg, "pass an RNG to NewPass") {
				t.Errorf("NewPass(nil) over a generator-less Dropout: panic %q, want one naming drop and asking for an RNG", msg)
			}
		}()
		tp.NewPass(nil)
	}()
	x := spec.Dataset.Generate(2, 1).Images
	if y := tp.NewPass(tensor.NewRNG(1)).ForwardInto(nil, x); y.Shape()[0] != 2 {
		t.Fatalf("forward pass with an RNG: shape %v", y.Shape())
	}
	conv, err := mustCompile(t, net, 0, net.Index("conv0")+1, nn.Float64).TrainPlan()
	if err != nil {
		t.Fatal(err)
	}
	conv.NewPass(nil).ForwardInto(nil, x)
}

// BenchmarkPretrainStep times one 32-sample pre-training step — forward,
// cross-entropy, every weight gradient, an Adam step — on the recording tape
// and as model.Train runs it, on a training plan compiled for the step, at
// LeNet and the CIFAR network.
func BenchmarkPretrainStep(b *testing.B) {
	for _, spec := range []model.Spec{model.LeNet(), model.CifarNet()} {
		ds := spec.Dataset.Generate(32, 1)
		b.Run(spec.Name+"/oracle", func(b *testing.B) {
			net := spec.Build(tensor.NewRNG(1))
			opt := optim.NewAdam(net.Params(), 1e-3)
			tape := nn.NewTape()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				net.ZeroGrad()
				tape.Reset()
				_, grad := nn.CrossEntropy(net.ForwardT(tape, ds.Images, true), ds.Labels)
				net.BackwardT(tape, grad)
				opt.Step()
			}
		})
		b.Run(spec.Name+"/plan", func(b *testing.B) {
			net := spec.Build(tensor.NewRNG(1))
			opt := optim.NewAdam(net.Params(), 1e-3)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tp, err := mustCompile(b, net, 0, net.Len(), nn.Float64).TrainPlan()
				if err != nil {
					b.Fatal(err)
				}
				pass := tp.NewPass(nil)
				net.ZeroGrad()
				_, grad := nn.CrossEntropy(pass.ForwardInto(nil, ds.Images), ds.Labels)
				pass.BackwardParams(grad)
				opt.Step()
			}
		})
	}
}
