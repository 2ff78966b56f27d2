package nn_test

import (
	"fmt"
	"testing"

	"shredder/internal/model"
	"shredder/internal/nn"
	"shredder/internal/race"
	"shredder/internal/tensor"
)

// trainStepWant is one step of a training plan's oracle.
type trainStepWant struct{ x, y, grad, dx *tensor.Tensor }

// tapeSteps is the oracle of a training plan: for each batch size in turn,
// ForwardRangeT in training mode and BackwardRangeT of a drawn gradient on
// one frozen tape, whose dropout stream starts at seed and runs on from step
// to step as a run's does.
func tapeSteps(net *nn.Sequential, in []int, from, to int, seed int64, batches []int) []trainStepWant {
	tape := nn.NewFrozenTape()
	tape.RNG = tensor.NewRNG(seed)
	rng := tensor.NewRNG(seed + 1)
	steps := make([]trainStepWant, len(batches))
	for i, batch := range batches {
		w := &steps[i]
		w.x = rng.FillNormal(tensor.New(append([]int{batch}, in...)...), 0, 1)
		tape.Reset()
		w.y = net.ForwardRangeT(tape, w.x, from, to, true)
		w.grad = rng.FillNormal(tensor.New(w.y.Shape()...), 0, 1)
		w.dx = net.BackwardRangeT(tape, w.grad, from, to)
	}
	return steps
}

// TestTrainPlanEqualsTapeBitwise: for every zoo network, every cut the
// registry names and batch sizes 1, 3 and 32, the training plan of the local
// range (the inversion attack's) and of the remote range (noise training's)
// gives the frozen tape's training-mode output and input gradient bit for
// bit, under the vector leaf and under the Go one — Dropout masks, drawn
// before the samples fan out, included (cifar, alexnet). The steps of a range
// go through one pass, so its reuse across batch sizes is pinned too. Under
// the race detector, which is after the fan-out and not the arithmetic, the
// 32-sample step is left out: the tape's side of it takes minutes there.
func TestTrainPlanEqualsTapeBitwise(t *testing.T) {
	batches := []int{3, 1, 32, 3}
	if race.Enabled {
		batches = []int{3, 1, 3}
	}
	for _, spec := range model.All() {
		t.Run(spec.Name, func(t *testing.T) {
			oracle := map[string][]trainStepWant{} // the tape does not run the leaf
			nn.UnderEachLeaf(t, func(t *testing.T) {
				net, _ := zooInput(spec, 1)
				for _, cp := range spec.CutPoints {
					cut := net.Index(cp.Layer) + 1
					for _, r := range [][2]int{{0, cut}, {cut, net.Len()}} {
						const seed = 51
						key := fmt.Sprint(cp.Name, r)
						if oracle[key] == nil {
							oracle[key] = tapeSteps(net, net.OutShapeAt(spec.Dataset.SampleShape(), r[0]), r[0], r[1], seed, batches)
						}
						tp, err := mustCompile(t, net, r[0], r[1], nn.Float64).TrainPlan()
						if err != nil {
							t.Fatal(err)
						}
						pass := tp.NewPass(tensor.NewRNG(seed))
						for i, w := range oracle[key] {
							if y := pass.ForwardInto(nil, w.x); !tensor.BitEqual(y, w.y) {
								t.Fatalf("cut %s layers %v step %d (batch %d): output differs from the tape's", cp.Name, r, i, batches[i])
							}
							if dx := pass.BackwardInto(nil, w.grad); !tensor.BitEqual(dx, w.dx) {
								t.Fatalf("cut %s layers %v step %d (batch %d): input gradient differs from the tape's", cp.Name, r, i, batches[i])
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
