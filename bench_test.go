// Benchmarks regenerating the paper's tables and figures (one benchmark
// per experiment, reporting the scientific quantities as custom metrics),
// plus micro-benchmarks of the substrates the pipeline is built on.
//
// The experiment benchmarks run at CI scale (Quick configs) so that
// `go test -bench=.` completes in minutes; `cmd/experiments` regenerates
// the full-scale numbers recorded in EXPERIMENTS.md. Pre-trained weights
// are cached under the test temp dir, shared across iterations.
package shredder

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"shredder/internal/attack"
	"shredder/internal/core"
	"shredder/internal/data"
	"shredder/internal/experiments"
	"shredder/internal/mi"
	"shredder/internal/model"
	"shredder/internal/nn"
	"shredder/internal/quantize"
	"shredder/internal/sched"
	"shredder/internal/splitrt"
	"shredder/internal/tensor"
)

// benchCache shares one weight-cache directory across all benchmarks of a
// run so each network pre-trains at most once.
var benchCache = struct {
	once sync.Once
	dir  string
}{}

func cacheDir(b *testing.B) string {
	benchCache.once.Do(func() {
		dir, err := os.MkdirTemp("", "shredder-bench-")
		if err != nil {
			b.Fatal(err)
		}
		benchCache.dir = dir
	})
	return benchCache.dir
}

func quickCfg(b *testing.B, nets ...string) experiments.Config {
	return experiments.Config{Workdir: cacheDir(b), Quick: true, Seed: 1, Networks: nets}
}

// ---------------------------------------------------------------------------
// Table 1 — one benchmark per network column. Each iteration regenerates the
// network's Table-1 row; MI loss and accuracy loss are reported as metrics.
// ---------------------------------------------------------------------------

func benchTable1(b *testing.B, network string) {
	cfg := quickCfg(b, network)
	var last *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	row := last.Rows[0]
	b.ReportMetric(row.MILossPct, "MIloss%")
	b.ReportMetric(row.AccLossPct, "accloss%")
	b.ReportMetric(row.OriginalMI, "origMIbits")
	b.ReportMetric(row.ShreddedMI, "shredMIbits")
}

func BenchmarkTable1LeNet(b *testing.B)   { benchTable1(b, "lenet") }
func BenchmarkTable1Cifar(b *testing.B)   { benchTable1(b, "cifar") }
func BenchmarkTable1Svhn(b *testing.B)    { benchTable1(b, "svhn") }
func BenchmarkTable1AlexNet(b *testing.B) { benchTable1(b, "alexnet") }

// ---------------------------------------------------------------------------
// Figure 3 — the accuracy–privacy frontier (quick ladder on LeNet). Metrics:
// the span of the frontier.
// ---------------------------------------------------------------------------

func BenchmarkFig3Frontier(b *testing.B) {
	cfg := quickCfg(b, "lenet")
	var last *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	s := last.Series[0]
	b.ReportMetric(s.ZeroLeakage, "zeroleakbits")
	b.ReportMetric(s.Points[len(s.Points)-1].InfoLossBits, "maxinfoloss")
}

// ---------------------------------------------------------------------------
// Figure 4 — noise-training dynamics: Shredder vs privacy-agnostic. Metric:
// the final in vivo privacy gap between the two traces.
// ---------------------------------------------------------------------------

func BenchmarkFig4Dynamics(b *testing.B) {
	cfg := quickCfg(b, "lenet")
	var last *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	s, g := last.Shredder[len(last.Shredder)-1], last.Regular[len(last.Regular)-1]
	b.ReportMetric(s.InVivo-g.InVivo, "invivogap")
}

// ---------------------------------------------------------------------------
// Figure 5 — in vivo vs ex vivo privacy across cutting points (LeNet's three
// cuts at quick scale; the full SVHN sweep runs via cmd/experiments).
// ---------------------------------------------------------------------------

func BenchmarkFig5CutPrivacy(b *testing.B) {
	cfg := quickCfg(b, "lenet")
	var last *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	series := last.Networks[0].Series
	b.ReportMetric(float64(len(series)), "cuts")
}

// ---------------------------------------------------------------------------
// Figure 6 — cost model × measured privacy per cutting point. Metric: the
// cost of the chosen cut relative to the most expensive cut.
// ---------------------------------------------------------------------------

func BenchmarkFig6CutCosts(b *testing.B) {
	cfg := quickCfg(b, "lenet")
	var last *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	pts := last.Networks[0].Points
	var chosen, max float64
	for _, p := range pts {
		if p.CostKMACMB > max {
			max = p.CostKMACMB
		}
		if p.Chosen {
			chosen = p.CostKMACMB
		}
	}
	b.ReportMetric(chosen/max, "chosencostfrac")
}

// ---------------------------------------------------------------------------
// Ablations — design choices DESIGN.md calls out.
// ---------------------------------------------------------------------------

// benchSystem pre-trains a small LeNet system once and reuses it.
var benchSys = struct {
	once sync.Once
	pre  *model.Pretrained
	spl  *core.Split
}{}

func lenetSplit(b *testing.B) (*model.Pretrained, *core.Split) {
	benchSys.once.Do(func() {
		pre, err := model.TrainCached(model.LeNet(),
			model.TrainConfig{TrainN: 600, TestN: 200, Epochs: 3, Seed: 1},
			filepath.Join(cacheDir(b), "ablation"))
		if err != nil {
			b.Fatal(err)
		}
		layer, _ := pre.Spec.CutLayer("conv2")
		spl, err := core.NewSplit(pre.Net, layer, pre.Spec.Dataset.SampleShape())
		if err != nil {
			b.Fatal(err)
		}
		benchSys.pre, benchSys.spl = pre, spl
	})
	return benchSys.pre, benchSys.spl
}

// Ablation: trained noise vs untrained Laplace noise of the same magnitude.
// Metric: the accuracy advantage (percentage points) that learning the noise
// buys at equal noise scale — the paper's core claim that disciplined noise
// beats accuracy-agnostic noise (Figure 1).
func BenchmarkAblationTrainedVsRandomNoise(b *testing.B) {
	pre, spl := lenetSplit(b)
	var adv float64
	for i := 0; i < b.N; i++ {
		res := core.TrainNoise(spl, pre.Train, core.NoiseConfig{
			Scale: 2, Lambda: 0.01, PrivacyTarget: 4, Epochs: 3, Seed: int64(i + 1),
		})
		trained := res.Noise.Values()
		random := tensor.NewRNG(int64(i+500)).FillLaplace(
			tensor.New(spl.ActivationShape()...), 0, trained.Std()/1.414)
		accWith := func(noise *tensor.Tensor) float64 {
			correct := 0
			for _, bt := range pre.Test.Batches(64) {
				logits := spl.RemoteInfer(core.AddBroadcast(spl.Local(bt.Images), noise))
				for j, y := range bt.Labels {
					if logits.Slice(j).Argmax() == y {
						correct++
					}
				}
			}
			return float64(correct) / float64(pre.Test.N())
		}
		adv = 100 * (accWith(trained) - accWith(random))
	}
	b.ReportMetric(adv, "accadv_pts")
}

// Ablation: self-supervised noise training (no ground-truth labels) vs
// label-supervised. Metric: the accuracy gap in percentage points.
func BenchmarkAblationSelfSupervised(b *testing.B) {
	pre, spl := lenetSplit(b)
	var gap float64
	for i := 0; i < b.N; i++ {
		accOf := func(selfSup bool) float64 {
			res := core.TrainNoise(spl, pre.Train, core.NoiseConfig{
				Scale: 2, Lambda: 0.01, PrivacyTarget: 4, Epochs: 3,
				Seed: int64(i + 1), SelfSupervised: selfSup,
			})
			correct := 0
			for _, bt := range pre.Test.Batches(64) {
				logits := spl.RemoteInfer(core.AddBroadcast(spl.Local(bt.Images), res.Noise.Values()))
				for j, y := range bt.Labels {
					if logits.Slice(j).Argmax() == y {
						correct++
					}
				}
			}
			return float64(correct) / float64(pre.Test.N())
		}
		gap = 100 * (accOf(false) - accOf(true))
	}
	b.ReportMetric(gap, "supgap_pts")
}

// Ablation: collection size vs information loss — more members mean more
// inference-time randomness and lower MI at the same accuracy budget.
func BenchmarkAblationCollectionSize(b *testing.B) {
	pre, spl := lenetSplit(b)
	var gain float64
	for i := 0; i < b.N; i++ {
		nc := core.NoiseConfig{Scale: 2, Lambda: 0.01, PrivacyTarget: 4, Epochs: 2, Seed: int64(i + 1)}
		ev := func(count int) float64 {
			col := core.Collect(spl, pre.Train, nc, count, 1)
			res := core.Evaluate(spl, pre.Test, col, core.EvalConfig{
				MI: mi.Options{K: 3, MaxSamples: 128, Seed: 1}, Seed: 1,
			})
			return res.MILossPct
		}
		gain = ev(6) - ev(2)
	}
	b.ReportMetric(gain, "milossgain%")
}

// ---------------------------------------------------------------------------
// Collection training: sequential vs parallel. The members of a collection
// are independent (paper §2.5), so Collect fans them out over a worker
// pool; both modes produce byte-identical collections, and the wall-clock
// ratio of these two benchmarks is the multicore speedup (≈ min(members,
// workers)× on an otherwise idle machine; no speedup on a single core).
// ---------------------------------------------------------------------------

func benchCollect(b *testing.B, workers int) {
	pre, spl := lenetSplit(b)
	nc := core.NoiseConfig{Scale: 2, Lambda: 0.01, PrivacyTarget: 4, Epochs: 1, Seed: 1}
	const members = 8
	b.ResetTimer()
	var col *core.Collection
	for i := 0; i < b.N; i++ {
		col = core.Collect(spl, pre.Train, nc, members, workers)
	}
	b.ReportMetric(float64(col.Len()), "members")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
}

func BenchmarkCollectSequential(b *testing.B) { benchCollect(b, 1) }

func BenchmarkCollectParallel(b *testing.B) { benchCollect(b, runtime.GOMAXPROCS(0)) }

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks.
// ---------------------------------------------------------------------------

func BenchmarkMatMul128(b *testing.B) {
	rng := tensor.NewRNG(1)
	x := rng.FillNormal(tensor.New(128, 128), 0, 1)
	y := rng.FillNormal(tensor.New(128, 128), 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
	}
	b.SetBytes(int64(128 * 128 * 128 * 8))
}

// convPlan compiles a one-convolution network: 16→32 channels, 3×3, over
// a batch of eight 16×16 inputs.
func convPlan(b *testing.B) (*nn.CompiledNet, *tensor.Tensor) {
	rng := tensor.NewRNG(1)
	net := nn.NewSequential("c", nn.NewConv2D("c", 16, 32, 3, 3, 1, 1, rng))
	plan, err := nn.Compile(net, nn.Float64)
	if err != nil {
		b.Fatal(err)
	}
	return plan, rng.FillNormal(tensor.New(8, 16, 16, 16), 0, 1)
}

func BenchmarkConv2DForward(b *testing.B) {
	plan, x := convPlan(b)
	out := plan.Infer(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.InferInto(out, x)
	}
}

// BenchmarkConv2DBackward times both halves of a convolution's backward pass
// on its training plan: the input gradient and the weight gradients.
func BenchmarkConv2DBackward(b *testing.B) {
	plan, x := convPlan(b)
	tp, err := plan.TrainPlan()
	if err != nil {
		b.Fatal(err)
	}
	pass := tp.NewPass(nil)
	out := pass.ForwardInto(nil, x)
	g := tensor.NewRNG(2).FillNormal(tensor.New(out.Shape()...), 0, 1)
	dx := pass.BackwardInto(nil, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass.BackwardInto(dx, g)
		pass.BackwardParams(g)
	}
}

func BenchmarkMIEstimatorKL(b *testing.B) {
	rng := tensor.NewRNG(1)
	n, d := 256, 64
	x := mi.NewSamples(rng.FillNormal(tensor.New(n*d), 0, 1).Data(), n, d)
	y := mi.NewSamples(rng.FillNormal(tensor.New(n*d), 0, 1).Data(), n, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mi.MutualInformationCalibrated(x, y, mi.Options{K: 3, Seed: int64(i)})
	}
}

func BenchmarkDatasetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data.Objects{}.Generate(64, int64(i))
	}
}

func BenchmarkSplitLocalInference(b *testing.B) {
	pre, spl := lenetSplit(b)
	batch := pre.Test.Batches(32)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spl.Local(batch.Images)
	}
}

func BenchmarkEndToEndPrivateInference(b *testing.B) {
	pre, spl := lenetSplit(b)
	col := core.Collect(spl, pre.Train, core.NoiseConfig{
		Scale: 2, Lambda: 0.01, PrivacyTarget: 4, Epochs: 1, Seed: 1,
	}, 4, 1)
	batch := pre.Test.Batches(1)[0]
	rng := tensor.NewRNG(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := spl.Local(batch.Images)
		col.DrawInto(nil, rng).ApplyInPlace(a)
		spl.RemoteInfer(a)
	}
}

// ---------------------------------------------------------------------------
// Split-runtime throughput: N concurrent edge clients hammering one cloud
// server over loopback TCP. The server has no inference lock — every
// connection runs the compiled plan in its own workspace — so on a
// multi-core host ops/sec scales with cores.
// ---------------------------------------------------------------------------

func benchServerThroughput(b *testing.B, clients int, opts ...splitrt.ServerOption) {
	pre, spl := lenetSplit(b)
	layer, err := pre.Spec.CutLayer("conv2")
	if err != nil {
		b.Fatal(err)
	}
	srv := splitrt.NewCloudServer(spl, layer, opts...)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	batch := pre.Test.Batches(1)[0]
	cs := make([]*splitrt.EdgeClient, clients)
	for i := range cs {
		c, err := splitrt.Dial(addr, spl, layer, nil, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		cs[i] = c
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for i, c := range cs {
		n := b.N / clients
		if i < b.N%clients {
			n++
		}
		wg.Add(1)
		go func(c *splitrt.EdgeClient, n int) {
			defer wg.Done()
			for j := 0; j < n; j++ {
				if _, err := c.Infer(batch.Images); err != nil {
					b.Error(err)
					return
				}
			}
		}(c, n)
	}
	wg.Wait()
	b.StopTimer()
	if s, ok := srv.BatchStats(); ok {
		b.ReportMetric(s.MeanOccupancy, "occupancy")
		b.ReportMetric(float64(s.Batches), "batches")
	}
}

func BenchmarkCloudServerThroughput(b *testing.B) {
	for _, clients := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("concurrent/clients=%d", clients), func(b *testing.B) {
			benchServerThroughput(b, clients)
		})
	}
}

// ---------------------------------------------------------------------------
// Cross-connection micro-batching (internal/sched wired into the cloud
// server): N lockstep clients against one server, with and without
// WithBatching. The batcher's idle-flush policy means a lone client pays no
// MaxDelay latency (batch of 1, flushed immediately), while at 8+ clients
// concurrent requests coalesce into [N, ...] forward passes — the
// "occupancy" metric is the mean coalesced batch size. On a multicore host
// batched ops/sec additionally amortize per-call overhead on top of the
// concurrent path's core scaling; on a single core expect parity at 1
// client and a modest win from amortization at higher client counts.
// ---------------------------------------------------------------------------

func BenchmarkServeBatched(b *testing.B) {
	for _, clients := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("unbatched/clients=%d", clients), func(b *testing.B) {
			benchServerThroughput(b, clients)
		})
		b.Run(fmt.Sprintf("batched/clients=%d", clients), func(b *testing.B) {
			benchServerThroughput(b, clients,
				splitrt.WithBatching(sched.Options{MaxBatch: 32, MaxDelay: time.Millisecond}))
		})
	}
}

// Extension: inversion-attack resistance. Metric: how many times harder the
// learned noise makes input reconstruction (shredded MSE / clean MSE) at
// the shallowest LeNet cut, where the activation retains the most input
// information.
func BenchmarkAblationInversionAttack(b *testing.B) {
	pre, err := model.TrainCached(model.LeNet(),
		model.TrainConfig{TrainN: 600, TestN: 200, Epochs: 3, Seed: 1},
		filepath.Join(cacheDir(b), "ablation"))
	if err != nil {
		b.Fatal(err)
	}
	layer, _ := pre.Spec.CutLayer("conv0")
	spl, err := core.NewSplit(pre.Net, layer, pre.Spec.Dataset.SampleShape())
	if err != nil {
		b.Fatal(err)
	}
	col := core.Collect(spl, pre.Train, core.NoiseConfig{
		Scale: 2, Lambda: 0.01, PrivacyTarget: 4, Epochs: 1, Seed: 1,
	}, 3, 1)
	var ratio float64
	for i := 0; i < b.N; i++ {
		clean, shredded := attack.Evaluate(spl, pre.Test.Images, col, 1,
			attack.Config{Steps: 150, Seed: int64(i)})
		ratio = shredded / clean
	}
	b.ReportMetric(ratio, "mse_ratio")
}

// Ablation: 8-bit wire quantization of the noisy activation. Metrics: the
// accuracy drop it causes (percentage points) and the communication
// compression factor versus float32 transport.
func BenchmarkAblationQuantizedWire(b *testing.B) {
	pre, spl := lenetSplit(b)
	col := core.Collect(spl, pre.Train, core.NoiseConfig{
		Scale: 2, Lambda: 0.01, PrivacyTarget: 4, Epochs: 2, Seed: 1,
	}, 3, 1)
	rng := tensor.NewRNG(5)
	var accDrop, ratio float64
	for i := 0; i < b.N; i++ {
		correctF, correctQ, n := 0, 0, 0
		var scheme quantize.Scheme
		fitted := false
		for _, bt := range pre.Test.Batches(64) {
			a := spl.Local(bt.Images)
			noisy := a.Clone()
			for j := 0; j < noisy.Dim(0); j++ {
				col.DrawInto(nil, rng).ApplyInPlace(noisy.Slice(j))
			}
			if !fitted {
				s, err := quantize.Fit(noisy, 8)
				if err != nil {
					b.Fatal(err)
				}
				scheme = s
				fitted = true
			}
			full := spl.RemoteInfer(noisy)
			served, err := scheme.DequantizePacked(scheme.QuantizePacked(noisy), noisy.Shape()...)
			if err != nil {
				b.Fatal(err)
			}
			quant := spl.RemoteInfer(served)
			for j, y := range bt.Labels {
				if full.Slice(j).Argmax() == y {
					correctF++
				}
				if quant.Slice(j).Argmax() == y {
					correctQ++
				}
				n++
			}
		}
		accDrop = 100 * float64(correctF-correctQ) / float64(n)
		vals := tensor.Volume(spl.ActivationShape())
		ratio = float64(vals*4) / float64(scheme.WireBytes(vals))
	}
	b.ReportMetric(accDrop, "accdrop_pts")
	b.ReportMetric(ratio, "compression_x")
}
