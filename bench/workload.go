package main

import (
	"time"

	"shredder"
)

// workload is one deployment of the split system plus the traffic sent to
// it. The four below stress different layers; README.md records what each
// one is expected to show and not to show.
type workload struct {
	name string
	why  string

	network string
	cut     string
	trainN  int // pre-training set size
	epochs  int // pre-training epochs
	testN   int // test set size: the request pool and the evaluation set

	members   int                   // noise tensors learned in the train phase
	noise     shredder.NoiseOptions // overrides of the registry's noise hyper-parameters
	noiseMode string                // how the serving system deploys the learned noise
	fleet     bool                  // gateway -> pool -> 2 float32 batched audited servers, 8-bit wire
	countN    int                   // length of the fixed request list of the count phase
}

var workloads = []workload{
	{
		name: "edge_lenet",
		why: "paper-default deep cut conv2 on LeNet: the float64 edge forward pass is ~2/3 of a request " +
			"and the transport's fixed per-request cost most of the rest",
		network: "lenet", cut: "conv2", trainN: 2000, epochs: 4, testN: 1000,
		members: 4, noise: shredder.NoiseOptions{Epochs: 2}, noiseMode: "stored", countN: 1000,
	},
	{
		name: "cloud_svhn",
		why: "shallow cut conv0 on SVHN (131 KB activation): the stock float64 cloud forward pass is ~4/5 " +
			"of a request and per-byte serialization most of the rest",
		network: "svhn", cut: "conv0", trainN: 200, epochs: 1, testN: 128,
		// A training step costs 0.3 s at this cut: one member per vCPU, one
		// epoch of 7 steps each.
		members: 2, noise: shredder.NoiseOptions{Epochs: 1}, noiseMode: "stored", countN: 128,
	},
	{
		name: "fleet_svhn_q8",
		why: "same model and cut with every optional layer on: gateway, pool, two compiled float32 " +
			"batched audited servers, 8-bit packed wire, fitted noise",
		network: "svhn", cut: "conv0", trainN: 200, epochs: 1, testN: 128,
		members: 2, noise: shredder.NoiseOptions{Epochs: 1}, noiseMode: "fitted", fleet: true, countN: 128,
	},
	{
		name: "learn_lenet",
		why: "the paper's method itself: 4 noise tensors trained for 12 epochs through conv and linear " +
			"backward kernels at cut conv0, then served with fitted noise",
		network: "lenet", cut: "conv0", trainN: 1000, epochs: 6, testN: 1000,
		// The registry tunes LeNet's Laplace scale and privacy target for the
		// deep cut; at conv0 they are scaled by 0.3, as Fig. 5's sweep does,
		// so that served accuracy stays above 85 %.
		members: 4, noise: shredder.NoiseOptions{Scale: 1.5, PrivacyTarget: 3}, noiseMode: "fitted", countN: 1000,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale sets how long each phase of a run lasts.
type scale struct {
	slices  int           // measured serve slices
	slice   time.Duration // length of one slice
	warmup  time.Duration // serve traffic before the first slice
	deploys int           // timed cold starts
}

// fullScale is the gated configuration: seconds one-second slices.
func fullScale(seconds int) scale {
	return scale{slices: seconds, slice: time.Second, warmup: 2 * time.Second, deploys: 5}
}

// quickScale shrinks every phase so that all four workloads run in a smoke
// test; its numbers mean nothing.
var quickScale = scale{slices: 2, slice: 200 * time.Millisecond, warmup: 100 * time.Millisecond, deploys: 1}

// quick returns the workload with tiny pre-training, training and request
// lists, keeping its topology.
func (w workload) quick() workload {
	w.trainN, w.epochs, w.testN, w.countN = 64, 1, 32, 32
	w.members = 2
	if w.noise.Epochs == 0 {
		w.noise.Epochs = 1
	}
	return w
}
