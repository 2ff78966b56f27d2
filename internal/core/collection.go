package core

import (
	"fmt"
	"runtime"
	"sync"

	"shredder/internal/data"
	"shredder/internal/tensor"
)

// Collection is a set of independently trained noise tensors — the paper's
// "distribution of noise tensors, all of which yield similar accuracy and
// noise levels" (§2.5). At inference one member is sampled per query; no
// training happens in that phase.
//
// A collection trained with NoiseConfig.Multiplicative additionally holds
// one trained weight tensor per member (Weights parallel to Members) for
// the a' = a⊙w + n variant; DrawInto then pairs each member's weight with its
// noise. FitCollection turns either kind into a FittedCollection that
// samples fresh noise per query from fitted distributions.
type Collection struct {
	// Shape is the per-sample activation shape every member matches.
	Shape []int
	// Members are the trained noise tensors.
	Members []*tensor.Tensor
	// Weights are the trained multiplicative weight tensors, parallel to
	// Members; nil for the standard additive collection.
	Weights []*tensor.Tensor
	// InVivo records each member's final in vivo privacy, for reporting.
	InVivo []float64
}

// AddMember appends a trained member: its noise tensor and, for the
// multiplicative variant, its weight tensor (nil for additive members).
// Mixing additive and multiplicative members in one collection panics.
func (c *Collection) AddMember(n, w *NoiseTensor, inVivo float64) {
	v := n.Values()
	if c.Shape == nil {
		c.Shape = append([]int(nil), v.Shape()...)
	}
	if !tensor.ShapeEq(c.Shape, v.Shape()) {
		panic(fmt.Sprintf("core: collection shape %v, member shape %v", c.Shape, v.Shape()))
	}
	if len(c.Members) > 0 && (w != nil) != (len(c.Weights) > 0) {
		panic("core: cannot mix additive and multiplicative members in one collection")
	}
	c.Members = append(c.Members, v.Clone())
	if w != nil {
		wv := w.Values()
		if !tensor.ShapeEq(c.Shape, wv.Shape()) {
			panic(fmt.Sprintf("core: collection shape %v, weight shape %v", c.Shape, wv.Shape()))
		}
		c.Weights = append(c.Weights, wv.Clone())
	}
	c.InVivo = append(c.InVivo, inVivo)
}

// Len returns the number of members.
func (c *Collection) Len() int { return len(c.Members) }

// Multiplicative reports whether the collection carries trained weight
// tensors (the a' = a⊙w + n variant).
func (c *Collection) Multiplicative() bool { return len(c.Weights) > 0 }

// NoiseShape returns the per-sample activation shape (NoiseSource).
func (c *Collection) NoiseShape() []int { return c.Shape }

// Mode reports ModeStored: the collection replays trained tensors.
func (c *Collection) Mode() string { return ModeStored }

// DrawInto samples one member uniformly — the inference-time sampling step
// of paper §2.5, one Intn per draw — and returns its tensors (NoiseSource).
// The draw shares the member tensors, so callers must not modify them, and
// the scratch is not used.
func (c *Collection) DrawInto(_ *DrawScratch, rng *tensor.RNG) Draw {
	if len(c.Members) == 0 {
		panic("core: sampling from an empty collection")
	}
	d := Draw{Member: rng.Intn(len(c.Members))}
	d.Noise = c.Members[d.Member]
	if len(c.Weights) > 0 {
		d.Weight = c.Weights[d.Member]
	}
	return d
}

// MeanInVivo returns the average recorded in vivo privacy of the members.
// Contract: an empty collection (or one whose members recorded no in vivo
// values) returns 0, never NaN — callers render the result directly in
// reports and summaries and must not need a guard.
func (c *Collection) MeanInVivo() float64 {
	if len(c.InVivo) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range c.InVivo {
		s += v
	}
	return s / float64(len(c.InVivo))
}

// Collect trains count noise tensors with distinct seeds and returns them
// as a collection. Each run repeats the full training process from a fresh
// Laplace initialization, exactly as §2.5 prescribes. With
// cfg.Multiplicative set, each member is a (weight, noise) pair trained
// jointly for a' = a⊙w + n.
//
// workers bounds the number of members trained concurrently: 1 trains
// sequentially, n > 1 fans the members over n goroutines sharing the one
// Split (training is reentrant — each run owns its pass on R's training plan,
// and all read one trainSet), and any value <= 0 selects GOMAXPROCS. Every
// member's randomness derives from its own seed (cfg.Seed + i·1_000_003) and
// results are assembled by member index, so parallel and sequential runs
// produce byte-identical collections.
func Collect(split *Split, ds *data.Dataset, cfg NoiseConfig, count, workers int) *Collection {
	if count <= 0 {
		panic("core: Collect needs a positive count")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > count {
		workers = count
	}

	type member struct {
		noise  *NoiseTensor
		weight *NoiseTensor
		inVivo float64
	}
	results := make([]member, count)
	// The members differ only in their seed: what the frozen weights make of
	// the dataset is computed once for all of them.
	cfg = cfg.withDefaults()
	set := newTrainSet(split, ds, cfg)
	train := func(i int) {
		run := cfg
		run.Seed = cfg.Seed + int64(i)*1_000_003
		// Label each member's observability events so interleaved parallel
		// runs stay attributable ("member-03", or "prefix/member-03").
		run.Run = fmt.Sprintf("member-%02d", i)
		if cfg.Run != "" {
			run.Run = cfg.Run + "/" + run.Run
		}
		res := trainNoise(split, set, run)
		results[i] = member{noise: res.Noise, weight: res.Weight, inVivo: res.FinalInVivo}
	}

	if workers == 1 {
		for i := 0; i < count; i++ {
			train(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					train(i)
				}
			}()
		}
		for i := 0; i < count; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	c := &Collection{}
	for _, m := range results {
		c.AddMember(m.noise, m.weight, m.inVivo)
	}
	return c
}
