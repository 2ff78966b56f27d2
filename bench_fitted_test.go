// Benchmarks for the fitted noise-distribution modes: the per-query cost of
// sampling fresh noise versus replaying a stored member, and the resident
// memory each deployment mode carries.
//
// A stored draw is an index pick plus an O(n) add. A fitted draw maps n
// stratified uniforms — born sorted, so no sort — through a member's
// quantile sketch and scatters them through that member's order
// permutation, also O(n) per query; the benchmark quantifies what fresh
// per-query sampling costs in latency over replay. The fitted-mul variant
// pays that twice (weight and noise).
package shredder

import (
	"sync"
	"testing"

	"shredder/internal/core"
	"shredder/internal/noisedist"
	"shredder/internal/tensor"
)

// fittedBench trains one small additive and one multiplicative collection
// and fits both, shared across all fitted benchmarks of a run.
var fittedBench = struct {
	once   sync.Once
	col    *core.Collection
	fit    *core.FittedCollection
	mulFit *core.FittedCollection
	act    *tensor.Tensor // one clean per-sample activation
}{}

func fittedSources(b *testing.B) {
	fittedBench.once.Do(func() {
		pre, spl := lenetSplit(b)
		nc := core.NoiseConfig{Scale: 2, Lambda: 0.01, PrivacyTarget: 4, Epochs: 1, Seed: 1}
		col := core.Collect(spl, pre.Train, nc, 8, 1)
		fit, err := core.FitCollection(col, noisedist.Laplace)
		if err != nil {
			b.Fatal(err)
		}
		mulNC := nc
		mulNC.Multiplicative = true
		mulCol := core.Collect(spl, pre.Train, mulNC, 8, 1)
		mulFit, err := core.FitCollection(mulCol, noisedist.Laplace)
		if err != nil {
			b.Fatal(err)
		}
		fittedBench.col, fittedBench.fit, fittedBench.mulFit = col, fit, mulFit
		fittedBench.act = spl.Local(pre.Test.Batches(1)[0].Images).Slice(0)
	})
}

// benchDraw measures one private query's noise path — draw a perturbation
// and apply it to a clean activation — and reports the source's resident
// size alongside ns/op.
func benchDraw(b *testing.B, src core.NoiseSource, residentBytes int) {
	fittedSources(b)
	rng := tensor.NewRNG(7)
	scratch := fittedBench.act.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch.CopyFrom(fittedBench.act)
		src.Draw(rng).ApplyInPlace(scratch)
	}
	b.ReportMetric(float64(residentBytes), "residentB")
	b.ReportMetric(float64(tensor.Volume(src.NoiseShape())), "elems")
}

func BenchmarkFittedDraw(b *testing.B) {
	fittedSources(b)
	stored := 8 * tensor.Volume(fittedBench.col.Shape) * fittedBench.col.Len()
	b.Run("stored", func(b *testing.B) { benchDraw(b, fittedBench.col, stored) })
	b.Run("fitted", func(b *testing.B) { benchDraw(b, fittedBench.fit, fittedBench.fit.MemoryBytes()) })
	b.Run("fitted-mul", func(b *testing.B) { benchDraw(b, fittedBench.mulFit, fittedBench.mulFit.MemoryBytes()) })
}

// BenchmarkFittedMemory pins the memory accounting itself: the ratio of
// stored-collection bytes to fitted-parameter bytes at the benchmark cut.
// The fitted footprint is one int32 permutation plus 16 bytes per member,
// so the compression grows linearly with collection size.
func BenchmarkFittedMemory(b *testing.B) {
	fittedSources(b)
	stored := 8 * tensor.Volume(fittedBench.col.Shape) * fittedBench.col.Len()
	fitted := fittedBench.fit.MemoryBytes()
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = float64(stored) / float64(fitted)
	}
	b.ReportMetric(ratio, "compression_x")
	b.ReportMetric(float64(stored), "storedB")
	b.ReportMetric(float64(fitted), "fittedB")
}
