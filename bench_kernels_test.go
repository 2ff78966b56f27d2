// Benchmarks for the dtype-parameterized kernel stack: the tape path's
// nil-tape forward pass (training's forward, and the oracle every plan is
// tested against — no serving code runs it) versus nn.Compile plans —
// float64 (BN folding and fusion only), float32 unfused, and float32
// fused. The per-layer cases cover the two heaviest layers of the
// profiler's alexnet breakdown (the matmul-backed conv1 and the fc1
// linear), where the fused float32 plan should hold a ≥1.5× speedup over the
// f64-stock arm on both.
//
// Weights are random: kernel timing does not depend on training, and
// skipping pre-training keeps `make bench-kernels` a seconds-scale smoke.
package shredder

import (
	"testing"

	"shredder/internal/model"
	"shredder/internal/nn"
	"shredder/internal/tensor"
)

// kernelBench pins one benchmark subject: layers [from,to) of a freshly
// built network, fed a deterministic batch.
type kernelBench struct {
	name     string
	net      *nn.Sequential
	from, to int
	x        *tensor.Tensor
}

func kernelSubjects(b *testing.B) []kernelBench {
	b.Helper()
	spec, err := model.ByName("alexnet")
	if err != nil {
		b.Fatal(err)
	}
	net := spec.Build(tensor.NewRNG(1))
	sample := spec.Dataset.SampleShape()

	rng := tensor.NewRNG(2)
	batchAt := func(n, layer int) *tensor.Tensor {
		shape := append([]int{n}, net.OutShapeAt(sample, layer)...)
		x := tensor.New(shape...)
		d := x.Data()
		for i := range d {
			d[i] = rng.Normal(0, 1)
		}
		return x
	}

	conv := net.Index("conv1") // heaviest conv: 16→32, 5×5 on 16×16 planes
	fc := net.Index("fc1")     // heaviest linear: 512→128
	return []kernelBench{
		{name: "conv1", net: net, from: conv, to: conv + 2, x: batchAt(8, conv)}, // conv1+relu1
		{name: "fc1", net: net, from: fc, to: fc + 2, x: batchAt(64, fc)},        // fc1+relu5
		{name: "full", net: net, from: 0, to: net.Len(), x: batchAt(8, 0)},
	}
}

// BenchmarkKernels compares, per subject, the oracle float64 pass (the
// f64-stock arm) against compiled plans at both dtypes. The f32 cases feed
// a pre-converted float32 batch through Infer32, so they time the kernels
// rather than the one-off float64→float32 input conversion.
func BenchmarkKernels(b *testing.B) {
	for _, s := range kernelSubjects(b) {
		compile := func(dt nn.Dtype, opts ...nn.CompileOption) *nn.CompiledNet {
			cn, err := nn.CompileRange(s.net, s.from, s.to, dt, opts...)
			if err != nil {
				b.Fatal(err)
			}
			return cn
		}
		x32 := tensor.ToDense[float32](s.x)

		b.Run(s.name+"/f64-stock", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.net.ForwardRangeT(nil, s.x, s.from, s.to, false)
			}
		})
		b.Run(s.name+"/f64-fused", func(b *testing.B) {
			cn := compile(nn.Float64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cn.Infer(s.x)
			}
		})
		b.Run(s.name+"/f32-nofuse", func(b *testing.B) {
			cn := compile(nn.Float32, nn.NoFusion())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cn.Infer32(x32)
			}
		})
		b.Run(s.name+"/f32-fused", func(b *testing.B) {
			cn := compile(nn.Float32)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cn.Infer32(x32)
			}
		})
	}
}
