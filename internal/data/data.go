// Package data provides the seeded, procedural datasets this reproduction
// uses in place of MNIST, CIFAR-10, SVHN and ImageNet, which are not
// available offline. Each generator produces class-conditional images with
// enough intra-class variation (affine jitter, texture, clutter, sensor
// noise) that the benchmark networks must learn genuine features, and the
// input/activation mutual information the paper measures is non-trivial.
//
// All generation is deterministic given a seed; the same seed always yields
// the same dataset, which keeps experiments reproducible.
package data

import (
	"fmt"
	"math"

	"shredder/internal/tensor"
)

// Dataset is an in-memory labelled image collection with images stored as a
// single [N, C, H, W] tensor.
type Dataset struct {
	Name    string
	Classes int
	Images  *tensor.Tensor
	Labels  []int
}

// N returns the number of samples.
func (d *Dataset) N() int { return len(d.Labels) }

// SampleShape returns the per-sample [C,H,W] shape.
func (d *Dataset) SampleShape() []int { return d.Images.Shape()[1:] }

// Image returns the i-th image as a shared-storage tensor.
func (d *Dataset) Image(i int) *tensor.Tensor { return d.Images.Slice(i) }

// Subset returns a dataset view containing the given indices (deep copy of
// the selected images, rows copied in parallel).
func (d *Dataset) Subset(idx []int) *Dataset {
	shape := append([]int{len(idx)}, d.SampleShape()...)
	img := tensor.New(shape...)
	labels := make([]int, len(idx))
	size := tensor.Volume(shape[1:])
	src, dst := d.Images.Data(), img.Data()
	tensor.ParallelFor(len(idx), func(i int) {
		j := idx[i]
		copy(dst[i*size:(i+1)*size], src[j*size:(j+1)*size])
		labels[i] = d.Labels[j]
	})
	return &Dataset{Name: d.Name, Classes: d.Classes, Images: img, Labels: labels}
}

// Split partitions the dataset into a training set of trainN samples and a
// test set of the remainder, after a seeded shuffle. Pre-training splits the
// recipe instead (Recipe.Split) and never builds the whole dataset; this
// gather is what that path is tested against.
func (d *Dataset) Split(trainN int, seed int64) (train, test *Dataset) {
	if trainN < 0 || trainN > d.N() {
		panic(fmt.Sprintf("data: Split trainN=%d out of range for %d samples", trainN, d.N()))
	}
	perm := tensor.NewRNG(seed).Perm(d.N())
	return d.Subset(perm[:trainN]), d.Subset(perm[trainN:])
}

// Shuffle returns a shuffled copy of the dataset.
func (d *Dataset) Shuffle(seed int64) *Dataset {
	return d.Subset(tensor.NewRNG(seed).Perm(d.N()))
}

// Batch is one minibatch: images [B, C, H, W] plus labels.
type Batch struct {
	Images *tensor.Tensor
	Labels []int
}

// Batches splits the dataset into consecutive minibatches of at most size
// samples. The final batch may be smaller. Batch images are deep copies so
// callers may mutate them (e.g. to add noise) without corrupting the
// dataset.
func (d *Dataset) Batches(size int) []Batch {
	if size <= 0 {
		panic("data: batch size must be positive")
	}
	var out []Batch
	px, row := d.Images.Data(), tensor.Volume(d.SampleShape())
	for lo := 0; lo < d.N(); lo += size {
		hi := min(lo+size, d.N())
		img := tensor.New(append([]int{hi - lo}, d.SampleShape()...)...)
		copy(img.Data(), px[lo*row:hi*row]) // consecutive rows: one copy, no gather
		out = append(out, Batch{Images: img, Labels: append([]int(nil), d.Labels[lo:hi]...)})
	}
	return out
}

// ClassCounts returns a histogram of labels, for balance checks.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.Classes)
	for _, y := range d.Labels {
		counts[y]++
	}
	return counts
}

// Normalize shifts and scales all pixels in place to zero mean and unit
// standard deviation across the whole dataset, returning the applied
// (mean, std) so test sets can reuse training statistics. The two
// statistics are one serial pass each, in element order: their bits decide
// every pixel a network trains on.
func (d *Dataset) Normalize() (mean, std float64) {
	px := d.Images.Data()
	mean = d.Images.Mean()
	var sq float64
	for _, v := range px {
		dev := v - mean
		sq += dev * dev
	}
	if len(px) > 0 {
		std = math.Sqrt(sq / float64(len(px)))
	}
	if std == 0 {
		std = 1
	}
	d.ApplyNormalization(mean, std)
	return mean, std
}

// ApplyNormalization applies a precomputed (mean, std) to the dataset, in
// one parallel pass.
func (d *Dataset) ApplyNormalization(mean, std float64) {
	px := d.Images.Data()
	tensor.ParallelChunks(len(px), func(lo, hi int) { ApplyNormalization(px[lo:hi], mean, std) })
}

// ApplyNormalization normalises pixels in place: every one becomes
// (x + (−mean)) · (1/std). It is the one place that arithmetic lives, so a
// sample normalised alone has the bits it has inside a normalised dataset.
func ApplyNormalization(px []float64, mean, std float64) {
	shift, scale := -mean, 1/std
	for i := range px {
		px[i] = (px[i] + shift) * scale
	}
}
