// Package model defines the four benchmark networks of the Shredder paper
// (LeNet, the CIFAR-10 network, the SVHN network, and a 64×64-input
// AlexNet), their cutting points, the pre-training harness that stands in
// for the paper's downloaded pre-trained weights, and the benchmark
// registry binding each network to its dataset and noise-training
// hyperparameters.
package model

import (
	"fmt"

	"shredder/internal/data"
	"shredder/internal/nn"
	"shredder/internal/tensor"
)

// CutPoint names an intermediate activation the edge device may transmit:
// the paper's cutting points are convolution layers, with the activation
// taken after that convolution's nonlinearity (and pooling, when the
// pooling immediately follows) — "the output of the features section" for
// the last conv.
type CutPoint struct {
	// Name is the paper-facing name ("conv0", "conv2", ...).
	Name string
	// Layer is the Sequential layer after which the network is split.
	Layer string
}

// Spec describes one benchmark network: how to build it and where it can
// be cut.
type Spec struct {
	// Name of the network ("lenet", "cifar", "svhn", "alexnet").
	Name string
	// Dataset is the generator for the network's input distribution.
	Dataset data.Generator
	// Build constructs the network with fresh weights from the RNG; a nil
	// RNG builds its shapes only, every weight zero, for a checkpoint to
	// fill.
	Build func(rng *tensor.RNG) *nn.Sequential
	// CutPoints lists the usable cutting points, shallow to deep.
	CutPoints []CutPoint
	// DefaultCut is the paper's chosen cut (the last convolution layer).
	DefaultCut string
}

// CutLayer resolves a paper-facing cut name to the Sequential layer after
// which to split.
func (s Spec) CutLayer(cutName string) (string, error) {
	for _, c := range s.CutPoints {
		if c.Name == cutName {
			return c.Layer, nil
		}
	}
	return "", fmt.Errorf("model: %s has no cut point %q", s.Name, cutName)
}

// LeNet returns the LeNet-5 spec: three convolution layers on 28×28
// grayscale input, matching the conv0/conv1/conv2 cut points of the
// paper's Figures 5b and 6b.
func LeNet() Spec {
	return Spec{
		Name:    "lenet",
		Dataset: data.Digits{},
		Build: func(rng *tensor.RNG) *nn.Sequential {
			return nn.NewSequential("lenet",
				nn.NewConv2D("conv0", 1, 6, 5, 5, 1, 0, rng), // 6×24×24
				nn.NewReLU("relu0"),
				nn.NewMaxPool2D("pool0", 2, 2),                // 6×12×12
				nn.NewConv2D("conv1", 6, 16, 5, 5, 1, 0, rng), // 16×8×8
				nn.NewReLU("relu1"),
				nn.NewMaxPool2D("pool1", 2, 2),                  // 16×4×4
				nn.NewConv2D("conv2", 16, 120, 4, 4, 1, 0, rng), // 120×1×1
				nn.NewReLU("relu2"),
				nn.NewFlatten("flat"),
				nn.NewLinear("fc1", 120, 84, rng),
				nn.NewReLU("relu3"),
				nn.NewLinear("fc2", 84, 10, rng),
			)
		},
		CutPoints: []CutPoint{
			{Name: "conv0", Layer: "pool0"},
			{Name: "conv1", Layer: "pool1"},
			{Name: "conv2", Layer: "relu2"},
		},
		DefaultCut: "conv2",
	}
}

// CifarNet returns the CIFAR-10 benchmark spec: a 4-convolution VGG-style
// network on 32×32 RGB input.
func CifarNet() Spec {
	return Spec{
		Name:    "cifar",
		Dataset: data.Objects{},
		Build: func(rng *tensor.RNG) *nn.Sequential {
			return nn.NewSequential("cifar",
				nn.NewConv2D("conv0", 3, 16, 3, 3, 1, 1, rng), // 16×32×32
				nn.NewReLU("relu0"),
				nn.NewConv2D("conv1", 16, 16, 3, 3, 1, 1, rng),
				nn.NewReLU("relu1"),
				nn.NewMaxPool2D("pool0", 2, 2), // 16×16×16
				nn.NewConv2D("conv2", 16, 24, 3, 3, 1, 1, rng),
				nn.NewReLU("relu2"),
				nn.NewConv2D("conv3", 24, 24, 3, 3, 1, 1, rng),
				nn.NewReLU("relu3"),
				nn.NewMaxPool2D("pool1", 2, 2), // 24×8×8
				nn.NewFlatten("flat"),
				nn.NewLinear("fc1", 24*8*8, 128, rng),
				nn.NewReLU("relu4"),
				nn.NewDropout("drop", 0.2, rng),
				nn.NewLinear("fc2", 128, 10, rng),
			)
		},
		CutPoints: []CutPoint{
			{Name: "conv0", Layer: "relu0"},
			{Name: "conv1", Layer: "pool0"},
			{Name: "conv2", Layer: "relu2"},
			{Name: "conv3", Layer: "pool1"},
		},
		DefaultCut: "conv3",
	}
}

// SvhnNet returns the SVHN benchmark spec: a 7-convolution network whose
// conv6 has a deliberately small output plane, reproducing the paper's
// observation (Fig. 6a) that SVHN's deepest conv slashes communication
// cost.
func SvhnNet() Spec {
	return Spec{
		Name:    "svhn",
		Dataset: data.HouseNumbers{},
		Build: func(rng *tensor.RNG) *nn.Sequential {
			return nn.NewSequential("svhn",
				nn.NewConv2D("conv0", 3, 16, 3, 3, 1, 1, rng), // 16×32×32
				nn.NewReLU("relu0"),
				nn.NewConv2D("conv1", 16, 16, 3, 3, 1, 1, rng),
				nn.NewReLU("relu1"),
				nn.NewMaxPool2D("pool0", 2, 2), // 16×16×16
				nn.NewConv2D("conv2", 16, 24, 3, 3, 1, 1, rng),
				nn.NewReLU("relu2"),
				nn.NewConv2D("conv3", 24, 24, 3, 3, 1, 1, rng),
				nn.NewReLU("relu3"),
				nn.NewMaxPool2D("pool1", 2, 2), // 24×8×8
				nn.NewConv2D("conv4", 24, 32, 3, 3, 1, 1, rng),
				nn.NewReLU("relu4"),
				nn.NewConv2D("conv5", 32, 32, 3, 3, 1, 1, rng),
				nn.NewReLU("relu5"),
				nn.NewMaxPool2D("pool2", 2, 2), // 32×4×4
				nn.NewConv2D("conv6", 32, 16, 3, 3, 1, 1, rng),
				nn.NewReLU("relu6"),
				nn.NewMaxPool2D("pool3", 2, 2), // 16×2×2 = 64 values
				nn.NewFlatten("flat"),
				nn.NewLinear("fc1", 16*2*2, 48, rng),
				nn.NewReLU("relu7"),
				nn.NewLinear("fc2", 48, 10, rng),
			)
		},
		CutPoints: []CutPoint{
			{Name: "conv0", Layer: "relu0"},
			{Name: "conv1", Layer: "pool0"},
			{Name: "conv2", Layer: "relu2"},
			{Name: "conv3", Layer: "pool1"},
			{Name: "conv4", Layer: "relu4"},
			{Name: "conv5", Layer: "pool2"},
			{Name: "conv6", Layer: "pool3"},
		},
		DefaultCut: "conv6",
	}
}

// AlexNet returns the AlexNet benchmark spec scaled to 64×64 RGB input:
// five convolutions with LRN after the first two (as in the original), and
// a three-layer classifier. The paper's ImageNet/AlexNet experiment runs at
// 224×224; 64×64 keeps pure-Go training tractable while preserving the
// depth, LRN, and cut-point structure (see DESIGN.md §2).
func AlexNet() Spec {
	return Spec{
		Name:    "alexnet",
		Dataset: data.TinyScenes{},
		Build: func(rng *tensor.RNG) *nn.Sequential {
			return nn.NewSequential("alexnet",
				nn.NewConv2D("conv0", 3, 16, 5, 5, 2, 2, rng), // 16×32×32
				nn.NewReLU("relu0"),
				nn.NewLocalResponseNorm("lrn0", 5, 0, 0, 0),
				nn.NewMaxPool2D("pool0", 2, 2), // 16×16×16
				nn.NewConv2D("conv1", 16, 32, 5, 5, 1, 2, rng),
				nn.NewReLU("relu1"),
				nn.NewLocalResponseNorm("lrn1", 5, 0, 0, 0),
				nn.NewMaxPool2D("pool1", 2, 2), // 32×8×8
				nn.NewConv2D("conv2", 32, 48, 3, 3, 1, 1, rng),
				nn.NewReLU("relu2"),
				nn.NewConv2D("conv3", 48, 48, 3, 3, 1, 1, rng),
				nn.NewReLU("relu3"),
				nn.NewConv2D("conv4", 48, 32, 3, 3, 1, 1, rng),
				nn.NewReLU("relu4"),
				nn.NewMaxPool2D("pool2", 2, 2), // 32×4×4
				nn.NewFlatten("flat"),
				nn.NewLinear("fc1", 32*4*4, 128, rng),
				nn.NewReLU("relu5"),
				nn.NewDropout("drop", 0.25, rng),
				nn.NewLinear("fc2", 128, 64, rng),
				nn.NewReLU("relu6"),
				nn.NewLinear("fc3", 64, 20, rng),
			)
		},
		CutPoints: []CutPoint{
			{Name: "conv0", Layer: "pool0"},
			{Name: "conv1", Layer: "pool1"},
			{Name: "conv2", Layer: "relu2"},
			{Name: "conv3", Layer: "relu3"},
			{Name: "conv4", Layer: "pool2"},
		},
		DefaultCut: "conv4",
	}
}

// ByName returns the spec for a benchmark network name.
func ByName(name string) (Spec, error) {
	switch name {
	case "lenet":
		return LeNet(), nil
	case "cifar":
		return CifarNet(), nil
	case "svhn":
		return SvhnNet(), nil
	case "alexnet":
		return AlexNet(), nil
	}
	return Spec{}, fmt.Errorf("model: unknown network %q (have lenet, cifar, svhn, alexnet)", name)
}

// All returns every benchmark spec in the paper's Table 1 order.
func All() []Spec {
	return []Spec{LeNet(), CifarNet(), SvhnNet(), AlexNet()}
}
