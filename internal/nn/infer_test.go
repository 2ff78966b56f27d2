package nn

// Tests for the reentrant inference path: for every layer, ForwardT with a
// discarded (nil) tape must compute exactly what Forward(x, false)
// computes, and running nil-tape ForwardT from many goroutines over one
// shared network must be race-free (the -race runs in CI enforce the
// latter).

import (
	"sync"
	"testing"

	"shredder/internal/tensor"
)

// inferLayers returns one instance of every layer type over a [2, 3, 8, 8]
// input, paired with the input each expects.
func inferCases(rng *tensor.RNG) []struct {
	name  string
	layer tapeLayer
	x     *tensor.Tensor
} {
	img := rng.FillNormal(tensor.New(2, 3, 8, 8), 0, 1)
	flat := rng.FillNormal(tensor.New(2, 192), 0, 1)
	return []struct {
		name  string
		layer tapeLayer
		x     *tensor.Tensor
	}{
		{"conv", NewConv2D("conv", 3, 4, 3, 3, 1, 1, rng), img},
		{"linear", NewLinear("lin", 192, 10, rng), flat},
		{"relu", NewReLU("relu"), img},
		{"flatten", NewFlatten("flat"), img},
		{"dropout", NewDropout("drop", 0.5, rng), img},
		{"maxpool", NewMaxPool2D("mp", 2, 2), img},
		{"lrn", NewLocalResponseNorm("lrn", 3, 0, 0, 0), img},
	}
}

func TestInferMatchesInferenceForward(t *testing.T) {
	for _, tc := range inferCases(tensor.NewRNG(11)) {
		want := tc.layer.ForwardT(nil, tc.x, false)
		got := tc.layer.ForwardT(nil, tc.x, false)
		if !tensor.AllClose(got, want, 0) {
			t.Errorf("%s: nil-tape ForwardT diverges from Forward(x, false)", tc.name)
		}
		if !tensor.ShapeEq(got.Shape(), want.Shape()) {
			t.Errorf("%s: nil-tape ForwardT shape %v != Forward shape %v", tc.name, got.Shape(), want.Shape())
		}
	}
}

func TestInferDoesNotDisturbTrainingState(t *testing.T) {
	rng := tensor.NewRNG(5)
	conv := NewConv2D("conv", 3, 4, 3, 3, 1, 1, rng)
	x := rng.FillNormal(tensor.New(2, 3, 8, 8), 0, 1)
	tape := NewTape()
	out := conv.ForwardT(tape, x, true)
	g := rng.FillNormal(tensor.New(out.Shape()...), 0, 1)
	wantDx := conv.BackwardT(tape, g).Clone()
	conv.W.Grad.Zero()
	conv.B.Grad.Zero()

	// An interleaved nil-tape inference (e.g. a serving goroutine) must not
	// corrupt the Forward→Backward pairing of a concurrent training loop.
	conv.ForwardT(tape, x, true)
	conv.ForwardT(nil, rng.FillNormal(tensor.New(5, 3, 8, 8), 0, 1), false)
	gotDx := conv.BackwardT(tape, g)
	if !tensor.AllClose(gotDx, wantDx, 0) {
		t.Fatal("Infer between Forward and Backward corrupted the backward pass")
	}
}

// TestSequentialInferConcurrent runs 8 goroutines × 4 inferences over one
// shared network. Under -race this fails on any layer that still caches
// forward state on the reentrant path; without -race it still verifies
// all outputs match the single-threaded baseline bit-for-bit.
func TestSequentialInferConcurrent(t *testing.T) {
	rng := tensor.NewRNG(7)
	net := NewSequential("tiny",
		NewConv2D("conv0", 1, 4, 3, 3, 1, 1, rng),
		NewReLU("relu0"),
		NewMaxPool2D("pool0", 2, 2),
		NewLocalResponseNorm("lrn0", 3, 0, 0, 0),
		NewConv2D("conv1", 4, 6, 3, 3, 1, 1, rng),
		NewReLU("relu1"),
		NewMaxPool2D("pool1", 2, 2),
		NewFlatten("flat"),
		NewDropout("drop", 0.3, rng),
		NewLinear("fc", 54, 10, rng),
	)
	x := rng.FillNormal(tensor.New(2, 1, 12, 12), 0, 1)
	want := net.ForwardT(nil, x, false)

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if got := net.ForwardT(nil, x, false); !tensor.AllClose(got, want, 0) {
					errs <- "concurrent Infer diverged from baseline"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
