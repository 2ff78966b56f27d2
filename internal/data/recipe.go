package data

import (
	"fmt"

	"shredder/internal/tensor"
)

// Recipe is a dataset before any pixel exists: a generator plus, per sample,
// the label and the seed its image is drawn from. Everything about a dataset
// that is O(n) integers — the balanced, shuffled labels, the per-sample
// seeds, a train/test split — is decided here; pixels are rendered one
// sample at a time (Render) or all at once, each straight into its slot
// (Materialize). Sample i of a recipe is the same bits however it is reached.
// A Recipe is immutable and safe for concurrent use.
type Recipe struct {
	gen    Generator
	labels []int
	seeds  []int64
}

// NewRecipe draws the labels and per-sample seeds of the n-sample dataset
// g.Generate(n, seed) would produce.
func NewRecipe(g Generator, n int, seed int64) *Recipe {
	r := &Recipe{gen: g, labels: make([]int, n), seeds: make([]int64, n)}
	root := tensor.NewRNG(seed)
	for i := 0; i < n; i++ {
		r.labels[i] = i % g.Classes() // balanced
		r.seeds[i] = root.Int63()
	}
	// Shuffle labels so batches are not class-ordered.
	root.Shuffle(n, func(i, j int) { r.labels[i], r.labels[j] = r.labels[j], r.labels[i] })
	return r
}

// N returns the number of samples.
func (r *Recipe) N() int { return len(r.labels) }

// Label returns the label of sample i.
func (r *Recipe) Label(i int) int { return r.labels[i] }

// Split partitions the recipe into a training recipe of trainN samples and a
// test recipe of the remainder, after a seeded shuffle — Dataset.Split
// without the images.
func (r *Recipe) Split(trainN int, seed int64) (train, test *Recipe, err error) {
	if trainN < 0 || trainN > r.N() {
		return nil, nil, fmt.Errorf("data: split of %d training samples out of range for %d samples", trainN, r.N())
	}
	perm := tensor.NewRNG(seed).Perm(r.N())
	return r.subset(perm[:trainN]), r.subset(perm[trainN:]), nil
}

func (r *Recipe) subset(idx []int) *Recipe {
	sub := &Recipe{gen: r.gen, labels: make([]int, len(idx)), seeds: make([]int64, len(idx))}
	for i, j := range idx {
		sub.labels[i], sub.seeds[i] = r.labels[j], r.seeds[j]
	}
	return sub
}

// Render draws sample i alone over img, a [C,H,W] tensor.
func (r *Recipe) Render(i int, img *tensor.Tensor) {
	r.gen.Render(img, r.labels[i], tensor.NewRNG(r.seeds[i]))
}

// Materialize renders every sample into its row of one [N,C,H,W] tensor.
func (r *Recipe) Materialize() *Dataset {
	ds := &Dataset{
		Name:    r.gen.Name(),
		Classes: r.gen.Classes(),
		Images:  tensor.New(append([]int{r.N()}, r.gen.SampleShape()...)...),
		Labels:  append([]int(nil), r.labels...),
	}
	tensor.ParallelFor(r.N(), func(i int) { r.Render(i, ds.Images.Slice(i)) })
	return ds
}
