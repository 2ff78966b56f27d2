// Package shredder is the public API of the Shredder reproduction: an
// end-to-end pipeline that splits a pre-trained DNN between an edge device
// and the cloud, learns additive noise distributions over the transmitted
// activation (Mireshghallah et al., "Shredder: Learning Noise Distributions
// to Protect Inference Privacy", ASPLOS 2020), and quantifies the privacy
// gained as mutual-information loss.
//
// The typical flow:
//
//	sys, err := shredder.NewSystem("lenet", shredder.Config{Seed: 1})
//	sys.LearnNoise(8)                     // train a collection of noise tensors
//	rep := sys.Evaluate()                 // Table-1 style metrics
//	label, _ := sys.Classify(pixels)      // private split inference
//
// For remote deployment, ServeCloud hosts the network's remote part over
// TCP and ConnectEdge returns a client that sends only noisy activations.
package shredder

import (
	"fmt"
	"io"
	"os"

	"shredder/internal/audit"
	"shredder/internal/core"
	"shredder/internal/mi"
	"shredder/internal/model"
	"shredder/internal/nn"
	"shredder/internal/noisedist"
	"shredder/internal/obs"
	"shredder/internal/sched"
	"shredder/internal/splitrt"
	"shredder/internal/tensor"
)

// Config controls system construction.
type Config struct {
	// Cut names the cutting point ("conv2", ...); empty selects the
	// network's default (its last convolution layer, as in the paper).
	Cut string
	// Seed makes the whole pipeline deterministic (default 1).
	Seed int64
	// TrainN, TestN, Epochs override the pre-training defaults when
	// non-zero. Smaller values trade accuracy for speed.
	TrainN, TestN, Epochs int
	// WeightCacheDir, when set, caches pre-trained weights between runs,
	// one entry per (network, TrainN, TestN, Epochs, Seed). A hit reads the
	// weights and the input normalisation they were trained under and
	// renders no dataset until something needs one; an entry that does not
	// load is retrained and rewritten.
	WeightCacheDir string
	// Progress, when non-nil, receives human-readable progress lines: one
	// per pre-training epoch, each of which measures test accuracy.
	Progress io.Writer
	// Dtype selects the serving arithmetic of Classify, ClassifyBaseline
	// and ServeCloud. Every inference runs a compiled plan (nn.Compile:
	// conv+bias+ReLU fused, no per-request allocation
	// beyond its result); "" or "float64" is the float64 plan, whose
	// results equal the training path's forward pass bit for bit, and
	// "float32" (also "f32", "fp32", "single") the single-precision plan,
	// whose classification decisions are pinned to the float64 ones by the
	// test suite. Training, noise learning and Evaluate always run in
	// float64.
	Dtype string
	// NoiseMode selects how learned noise is deployed at inference.
	// "stored" (or "") replays the K trained tensors, sampling one per
	// query — the paper's §2.5 collection exactly as before. "fitted"
	// distills each trained tensor into a quantile sketch + ordering once
	// and samples *fresh* noise per query (no float64 tensors resident).
	// "fitted-mul" additionally trains per-element multiplicative weights
	// and samples fresh (w, n) pairs: a' = a⊙w + n.
	NoiseMode string
	// NoiseDist selects the parametric family of the fitted modes:
	// "laplace" (the default; matches the noise initialization) or
	// "gaussian". Ignored in stored mode.
	NoiseDist string
}

// NoiseOptions override the benchmark's tuned noise hyperparameters; zero
// fields keep the defaults.
type NoiseOptions struct {
	Scale          float64 // Laplace initialization scale b
	Lambda         float64 // privacy knob λ of the loss CE − λΣ|n|
	PrivacyTarget  float64 // in vivo (1/SNR) level at which λ decays
	Epochs         float64 // noise-training length (fractional allowed)
	SelfSupervised bool    // train against the model's own predictions
	// Multiplicative trains per-element weights jointly with the noise
	// (a' = a⊙w + n). Implied by Config.NoiseMode "fitted-mul".
	Multiplicative bool
	// WeightMu and WeightStd override the Normal weight initialization of
	// the multiplicative variant (defaults: near-identity N(1, 0.25)).
	WeightMu, WeightStd float64
	// Workers bounds how many noise tensors train concurrently: 1 forces
	// sequential training, 0 (the default) uses all available cores. The
	// learned collection is byte-identical either way.
	Workers int
	// Hook, when non-nil, receives an obs.TrainingEvent at every
	// evaluation point of every member's training run (events carry a
	// "member-NN" run label). Compose hooks with obs.Hooks, e.g.
	// obs.Hooks(obs.ProgressHook(os.Stderr), obs.CSVHook(f)).
	Hook obs.Hook
}

// Report carries the headline metrics of an evaluation — the quantities of
// the paper's Table 1.
type Report struct {
	Network       string
	Cut           string
	BaselineAcc   float64 // accuracy without noise, fraction
	NoisyAcc      float64 // accuracy with sampled noise, fraction
	AccLossPct    float64 // percentage points
	OriginalMI    float64 // I(x; a) in bits
	ShreddedMI    float64 // I(x; a′) in bits
	MILossPct     float64
	InVivoPrivacy float64 // 1/SNR
	NoiseParams   int     // trainable noise parameters
	ModelParams   int     // frozen network parameters
}

// String renders the report as a compact human-readable block.
func (r Report) String() string {
	return fmt.Sprintf(
		"%s (cut %s): accuracy %.2f%% → %.2f%% (−%.2f pts); MI %.2f → %.2f bits (−%.1f%%); "+
			"1/SNR %.3f; noise params %d (%.2f%% of model)",
		r.Network, r.Cut, 100*r.BaselineAcc, 100*r.NoisyAcc, r.AccLossPct,
		r.OriginalMI, r.ShreddedMI, r.MILossPct, r.InVivoPrivacy,
		r.NoiseParams, 100*float64(r.NoiseParams)/float64(r.ModelParams))
}

// System is a pre-trained benchmark network split at a cutting point, with
// an optional learned noise collection.
type System struct {
	bench    model.Benchmark
	pre      *model.Pretrained
	split    *core.Split
	cutName  string
	cutLayer string
	// edge is Classify's step before R. It also holds what the System
	// deploys — Source, the learned collection or its fit (nil before
	// LearnNoise/LoadNoise), and Monitor (nil = privacy telemetry disabled) —
	// which ConnectEdge and ConnectPool hand to the edges of their own.
	edge       *core.Edge
	noiseMode  string         // Config.NoiseMode, validated
	noiseKind  noisedist.Kind // Config.NoiseDist, parsed
	seed       int64
	dtype      nn.Dtype        // Config.Dtype parsed ("" = float64)
	remotePlan *nn.CompiledNet // R at dtype, for Classify
	fullPlan   *nn.CompiledNet // the whole net at dtype, for ClassifyBaseline
}

// Networks lists the available benchmark networks.
func Networks() []string {
	var out []string
	for _, s := range model.All() {
		out = append(out, s.Name)
	}
	return out
}

// NewSystem pre-trains (or loads from cache) the named benchmark network
// on its synthetic dataset and splits it at the configured cutting point.
// On a warm weight cache that is all loading — the checkpoint (weights and
// input normalisation) and plan compilation: no forward pass and no pixel
// rendered. Whatever can be derived from the loaded state is computed when
// asked: TestSample renders its one sample, and the first of LearnNoise*,
// Evaluate, BaselineAccuracy or an attack renders the train and test splits,
// once, on its caller's goroutine. Negative TrainN, TestN or Epochs are an
// error.
func NewSystem(network string, cfg Config) (*System, error) {
	bench, err := model.BenchmarkByName(network)
	if err != nil {
		return nil, err
	}
	return newSystem(bench, cfg)
}

// newSystem is NewSystem once the benchmark is resolved.
func newSystem(bench model.Benchmark, cfg Config) (*System, error) {
	var err error
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	tc := model.TrainConfig{
		TrainN: cfg.TrainN, TestN: cfg.TestN, Epochs: cfg.Epochs,
		Seed: cfg.Seed, Progress: cfg.Progress,
	}
	var pre *model.Pretrained
	if cfg.WeightCacheDir != "" {
		pre, err = model.Open(bench.Spec, tc, cfg.WeightCacheDir)
	} else {
		pre, err = model.Train(bench.Spec, tc)
	}
	if err != nil {
		return nil, err
	}
	cutName := cfg.Cut
	if cutName == "" {
		cutName = bench.Spec.DefaultCut
	}
	cutLayer, err := bench.Spec.CutLayer(cutName)
	if err != nil {
		return nil, err
	}
	split, err := core.NewSplit(pre.Net, cutLayer, bench.Spec.Dataset.SampleShape())
	if err != nil {
		return nil, err
	}
	mode := cfg.NoiseMode
	if mode == "" {
		mode = core.ModeStored
	}
	switch mode {
	case core.ModeStored, core.ModeFitted, core.ModeFittedMul:
	default:
		return nil, fmt.Errorf("shredder: unknown noise mode %q (want %s, %s, or %s)",
			cfg.NoiseMode, core.ModeStored, core.ModeFitted, core.ModeFittedMul)
	}
	kind, err := noisedist.ParseKind(cfg.NoiseDist)
	if err != nil {
		return nil, fmt.Errorf("shredder: %w", err)
	}
	sys := &System{
		bench: bench, pre: pre, split: split,
		cutName: cutName, cutLayer: cutLayer,
		edge:      core.NewEdge(split, nil, cfg.Seed+77),
		noiseMode: mode, noiseKind: kind, seed: cfg.Seed,
	}
	// The serving dtype is the System's own: its plans serve Classify*, and
	// ServeCloud hands the dtype to its servers. The Split's plans stay
	// float64 whatever it is, so noise training and Evaluate — which go
	// through the Split — do not move with a serving knob.
	if cfg.Dtype != "" {
		if sys.dtype, err = nn.ParseDtype(cfg.Dtype); err != nil {
			return nil, fmt.Errorf("shredder: %w", err)
		}
	}
	// Both are the Split's: at float64 the plans it already serves from,
	// otherwise one more compile, which the System's servers share.
	if sys.remotePlan, err = split.RemotePlan(sys.dtype); err == nil {
		sys.fullPlan, err = split.FullPlan(sys.dtype)
	}
	if err != nil {
		return nil, fmt.Errorf("shredder: compile %s at %v: %w", bench.Spec.Name, sys.dtype, err)
	}
	return sys, nil
}

// Network returns the benchmark network name.
func (s *System) Network() string { return s.bench.Spec.Name }

// Cut returns the active cutting point name.
func (s *System) Cut() string { return s.cutName }

// CutLayerName returns the name of the last layer that runs on the edge —
// layers up to and including it are local, the rest are remote.
func (s *System) CutLayerName() string { return s.cutLayer }

// PrivacyTarget returns the benchmark's tuned in-vivo (1/SNR) target.
func (s *System) PrivacyTarget() float64 { return s.bench.PrivacyTarget }

// Dtype returns the serving arithmetic ("float64" or "float32").
func (s *System) Dtype() string { return s.dtype.String() }

// AttachProfiler installs p as the network's per-layer profiler: every
// forward/backward pass — local, remote, serving, or training — reports
// per-layer wall time and scratch bytes until DetachProfiler. Attaching is
// safe while inference traffic is in flight.
func (s *System) AttachProfiler(p *obs.Profiler) {
	if p == nil {
		s.pre.Net.SetProfiler(nil) // avoid storing a typed-nil interface
		return
	}
	s.pre.Net.SetProfiler(p)
}

// DetachProfiler removes the network-level profiler; subsequent passes run
// the branch-only disabled path again.
func (s *System) DetachProfiler() { s.pre.Net.SetProfiler(nil) }

// EnablePrivacyTelemetry builds a core.PrivacyMonitor over the deployed
// noise source and registers its privacy.* metrics in reg: per-member
// sampling balance on every Classify, and the realized in-vivo 1/SNR
// (against the benchmark's PrivacyTarget) on every sampleEvery-th query.
// ConnectEdge clients and ConnectPool fleets created afterwards inherit the
// monitor unless their options override it. Call after LearnNoise/LoadNoise
// and before serving traffic.
func (s *System) EnablePrivacyTelemetry(reg *obs.Registry, sampleEvery int) error {
	if reg == nil {
		return fmt.Errorf("shredder: EnablePrivacyTelemetry needs a registry")
	}
	if !s.HasNoise() {
		return fmt.Errorf("shredder: EnablePrivacyTelemetry before LearnNoise/LoadNoise")
	}
	s.edge.Monitor = core.NewPrivacyMonitor(reg, s.edge.Source, s.bench.PrivacyTarget, sampleEvery)
	return nil
}

// PrivacyMonitor returns the live privacy monitor, or nil when
// EnablePrivacyTelemetry has not been called.
func (s *System) PrivacyMonitor() *core.PrivacyMonitor { return s.edge.Monitor }

// materialized returns the model with its Train and Test splits rendered.
// The first call, from whichever goroutine, renders and normalises them
// (model.Pretrained.Materialize); nothing on the serving path calls it. Its
// error is a weight-cache entry trained on other pixels than this code
// generates (model.ErrNormalizationMismatch).
func (s *System) materialized() (*model.Pretrained, error) {
	if err := s.pre.Materialize(); err != nil {
		return nil, fmt.Errorf("shredder: %w", err)
	}
	return s.pre, nil
}

// mustMaterialize is materialized for the methods that return no error.
func (s *System) mustMaterialize() *model.Pretrained {
	pre, err := s.materialized()
	if err != nil {
		panic(err)
	}
	return pre
}

// BaselineAccuracy returns the pre-trained network's test accuracy. The
// first call measures it — one sweep of the test set, materialised if it was
// not yet; NewSystem does neither — and later calls, from any goroutine,
// return that value.
func (s *System) BaselineAccuracy() float64 { return s.mustMaterialize().TestAccuracy() }

// InputShape returns the per-sample [C,H,W] input shape.
func (s *System) InputShape() []int { return s.bench.Spec.Dataset.SampleShape() }

// Classes returns the number of output classes.
func (s *System) Classes() int { return s.bench.Spec.Dataset.Classes() }

// TestSample returns the pixels and label of test sample i, for demo and
// example use. It renders that one sample — the bits the materialised test
// split holds at i — and panics for an i outside [0, TestSize()).
func (s *System) TestSample(i int) (pixels []float64, label int) {
	if i < 0 || i >= s.TestSize() {
		panic(fmt.Sprintf("shredder: TestSample(%d) out of range [0, %d)", i, s.TestSize()))
	}
	return s.pre.TestSample(i)
}

// TestSize returns the number of test samples.
func (s *System) TestSize() int { return s.pre.Config.TestN }

// noiseConfig merges tuned defaults with user overrides.
func (s *System) noiseConfig(opt NoiseOptions) core.NoiseConfig {
	nc := core.NoiseConfig{
		Mu:            s.bench.NoiseMu,
		Scale:         s.bench.NoiseScale,
		Lambda:        s.bench.Lambda,
		PrivacyTarget: s.bench.PrivacyTarget,
		LR:            s.bench.NoiseLR,
		Epochs:        s.bench.NoiseEpochs,
		Seed:          s.seed,
	}
	if opt.Scale != 0 {
		nc.Scale = opt.Scale
	}
	if opt.Lambda != 0 {
		nc.Lambda = opt.Lambda
	}
	if opt.PrivacyTarget != 0 {
		nc.PrivacyTarget = opt.PrivacyTarget
	}
	if opt.Epochs != 0 {
		nc.Epochs = opt.Epochs
	}
	nc.SelfSupervised = opt.SelfSupervised
	nc.Multiplicative = opt.Multiplicative || s.noiseMode == core.ModeFittedMul
	nc.WeightMu = opt.WeightMu
	nc.WeightStd = opt.WeightStd
	nc.Hook = opt.Hook
	return nc
}

// LearnNoise trains a collection of count noise tensors with the
// network's tuned hyperparameters (paper §2.5's sampling set).
func (s *System) LearnNoise(count int) { s.LearnNoiseWith(count, NoiseOptions{}) }

// LearnNoiseWith is LearnNoise with hyperparameter overrides. The
// collection's members train over opt.Workers goroutines (0 = all cores);
// the result does not depend on the worker count. Under Config.NoiseMode
// "fitted-mul" the multiplicative objective is trained regardless of
// opt.Multiplicative; under the fitted modes the trained collection is
// fitted immediately and fresh noise is sampled from then on.
func (s *System) LearnNoiseWith(count int, opt NoiseOptions) {
	col := core.Collect(s.split, s.mustMaterialize().Train, s.noiseConfig(opt), count, opt.Workers)
	if err := s.installNoise(col); err != nil {
		// The guards below make this unreachable from Collect output; a
		// failure here is a programming error, not an I/O condition.
		panic("shredder: " + err.Error())
	}
}

// installNoise deploys a trained collection under the configured noise
// mode: as-is for stored, through FitCollection for the fitted modes.
func (s *System) installNoise(col *core.Collection) error {
	switch {
	case s.noiseMode == core.ModeStored: // additive or multiplicative members replay directly
		s.edge.Source = col
		return nil
	case s.noiseMode == core.ModeFitted && col.Multiplicative():
		return fmt.Errorf("noise mode %s cannot deploy a multiplicative collection; use %s",
			core.ModeFitted, core.ModeFittedMul)
	case s.noiseMode == core.ModeFittedMul && !col.Multiplicative():
		return fmt.Errorf("noise mode %s needs a multiplicative collection (train with NoiseOptions.Multiplicative)",
			core.ModeFittedMul)
	}
	fc, err := core.FitCollection(col, s.noiseKind)
	if err != nil {
		return err
	}
	s.edge.Source = fc
	return nil
}

// HasNoise reports whether a noise source has been learned or loaded.
func (s *System) HasNoise() bool { return s.edge.Source != nil }

// NoiseMode returns the deployed noise mode ("stored", "fitted",
// "fitted-mul") — the active source's mode once noise is learned or
// loaded, the configured mode before that.
func (s *System) NoiseMode() string {
	if s.HasNoise() {
		return s.edge.Source.Mode()
	}
	return s.noiseMode
}

// NoiseSource returns the deployed noise source (nil before
// LearnNoise/LoadNoise).
func (s *System) NoiseSource() core.NoiseSource { return s.edge.Source }

// Evaluate measures accuracy and mutual information on the test set.
// LearnNoise (or LoadNoise) must have been called.
func (s *System) Evaluate() Report {
	if !s.HasNoise() {
		panic("shredder: Evaluate before LearnNoise/LoadNoise")
	}
	ev := core.Evaluate(s.split, s.mustMaterialize().Test, s.edge.Source, core.EvalConfig{
		MI:   mi.Options{K: 3, MaxSamples: 256, Seed: s.seed},
		Seed: s.seed,
	})
	noiseParams := 1
	for _, d := range s.split.ActivationShape() {
		noiseParams *= d
	}
	return Report{
		Network:       s.Network(),
		Cut:           s.cutName,
		BaselineAcc:   ev.BaselineAcc,
		NoisyAcc:      ev.NoisyAcc,
		AccLossPct:    ev.AccLossPct,
		OriginalMI:    ev.OrigMI,
		ShreddedMI:    ev.ShreddedMI,
		MILossPct:     ev.MILossPct,
		InVivoPrivacy: ev.InVivo,
		NoiseParams:   noiseParams,
		ModelParams:   s.pre.Net.ParamCount(),
	}
}

// toBatch wraps raw pixels as a single-sample batch after validating the
// length against the input shape.
func (s *System) toBatch(pixels []float64) (*tensor.Tensor, error) {
	shape := s.InputShape()
	if len(pixels) != tensor.Volume(shape) {
		return nil, fmt.Errorf("shredder: got %d pixels, %s expects %d (%v)",
			len(pixels), s.Network(), tensor.Volume(shape), shape)
	}
	buf := make([]float64, len(pixels))
	copy(buf, pixels)
	return tensor.From(buf, append([]int{1}, shape...)...), nil
}

// Classify performs private split inference on one image: the edge step —
// local layers, plus a draw from the deployed noise source — then the remote
// layers. Pixels must be in the normalized domain of TestSample outputs.
// Classify is safe for concurrent use: the network passes run on the
// reentrant inference path and the edge serializes the noise sampling.
func (s *System) Classify(pixels []float64) (int, error) {
	if !s.HasNoise() {
		return 0, fmt.Errorf("shredder: Classify before LearnNoise/LoadNoise")
	}
	x, err := s.toBatch(pixels)
	if err != nil {
		return 0, err
	}
	a, _ := s.edge.Step(nil, x)
	return s.remotePlan.Infer(a).Slice(0).Argmax(), nil
}

// ClassifyBaseline performs inference without noise (the original
// execution the paper compares against).
func (s *System) ClassifyBaseline(pixels []float64) (int, error) {
	x, err := s.toBatch(pixels)
	if err != nil {
		return 0, err
	}
	return s.fullPlan.Infer(x).Slice(0).Argmax(), nil
}

// SaveNoise writes the deployed noise source to path: stored collections
// as their trained tensors, fitted sources as their compact distribution
// parameters (sketches, orderings, and (loc, scale) pairs — trained float64
// tensors are not written in the fitted modes).
func (s *System) SaveNoise(path string) error {
	if !s.HasNoise() {
		return fmt.Errorf("shredder: no noise collection to save")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return core.EncodeNoiseSource(f, s.edge.Source)
}

// LoadNoise reads a noise file written by SaveNoise. A stored collection is
// deployed under the configured NoiseMode — fitted modes refit it on load; a
// fitted file deploys directly in its own mode.
func (s *System) LoadNoise(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	src, err := core.DecodeNoiseSource(f)
	if err != nil {
		return err
	}
	if !tensor.ShapeEq(src.NoiseShape(), s.split.ActivationShape()) {
		return fmt.Errorf("shredder: noise shape %v does not match cut activation %v",
			src.NoiseShape(), s.split.ActivationShape())
	}
	switch v := src.(type) {
	case *core.Collection:
		if err := s.installNoise(v); err != nil {
			return fmt.Errorf("shredder: %w", err)
		}
	case *core.FittedCollection:
		s.edge.Source, s.noiseMode = v, v.Mode()
	default:
		return fmt.Errorf("shredder: unsupported noise source %T", src)
	}
	return nil
}

// SaveWeights writes the pre-trained network's checkpoint — weights and
// input normalisation — to path.
func (s *System) SaveWeights(path string) error {
	return nn.SaveFile(s.pre.Net, nn.InputNorm{Mean: s.pre.Mean, Std: s.pre.Std}, path)
}

// CloudHandle is a running cloud server hosting the remote part.
type CloudHandle struct {
	srv  *splitrt.CloudServer
	Addr string
}

// Close shuts the server down.
func (h *CloudHandle) Close() error { return h.srv.Close() }

// BatchStats returns the micro-batching scheduler's counters (batches,
// mean occupancy, queue delay, flush reasons); ok is false when the server
// was started without splitrt.WithBatching. It is a compatibility wrapper
// over the scheduler's registered obs metrics; prefer Metrics for the full
// picture.
func (h *CloudHandle) BatchStats() (stats sched.Stats, ok bool) { return h.srv.BatchStats() }

// Metrics returns the server's metrics registry, or nil when the server
// was started without splitrt.WithObservability / splitrt.WithDebugServer.
func (h *CloudHandle) Metrics() *obs.Registry { return h.srv.Metrics() }

// DebugAddr returns the bound address of the server's debug HTTP endpoint
// (splitrt.WithDebugServer), or "" when none is configured.
func (h *CloudHandle) DebugAddr() string { return h.srv.DebugAddr() }

// Auditor returns the server's tamper-evident audit batcher
// (splitrt.WithAudit), or nil when auditing is disabled.
func (h *CloudHandle) Auditor() *audit.Auditor { return h.srv.Auditor() }

// ServeCloud starts a TCP server for the system's remote part on addr
// (e.g. "127.0.0.1:0") and returns its handle with the bound address.
// Connections are served fully concurrently (the remote forward pass is
// reentrant); opts configure per-connection timeouts.
func (s *System) ServeCloud(addr string, opts ...splitrt.ServerOption) (*CloudHandle, error) {
	// Inherit the system's dtype; an explicit WithDtype later in the slice
	// still wins.
	opts = append([]splitrt.ServerOption{splitrt.WithDtype(s.dtype)}, opts...)
	srv := splitrt.NewCloudServer(s.split, s.cutLayer, opts...)
	bound, err := srv.Serve(addr)
	if err != nil {
		return nil, err
	}
	return &CloudHandle{srv: srv, Addr: bound}, nil
}

// EdgeHandle is a connected edge client performing remote split inference.
type EdgeHandle struct {
	client *splitrt.EdgeClient
	sys    *System
}

// ConnectEdge dials a cloud server and returns an edge client that sends
// only noisy activations (raw activations when no noise is learned).
// opts configure request timeouts and reconnect-with-backoff behaviour.
func (s *System) ConnectEdge(addr string, opts ...splitrt.ClientOption) (*EdgeHandle, error) {
	if m := s.edge.Monitor; m != nil {
		// Inherit the system's privacy monitor; explicit options later in
		// the slice still win.
		opts = append([]splitrt.ClientOption{splitrt.WithPrivacyTelemetry(m)}, opts...)
	}
	client, err := splitrt.Dial(addr, s.split, s.cutLayer, s.edge.Source, s.seed+99, opts...)
	if err != nil {
		return nil, err
	}
	return &EdgeHandle{client: client, sys: s}, nil
}

// PoolHandle is a connected fleet client balancing split inference over
// several cloud backends.
type PoolHandle struct {
	pool *splitrt.Pool
	sys  *System
}

// ConnectPool dials every backend address and returns a fleet handle:
// requests balance over the healthy backends, failures reroute, ejected
// backends are health-checked back in, and (with splitrt.WithHedging)
// slow calls are hedged. The pool applies the system's noise source, and
// feeds the system's privacy monitor, exactly as a single edge client would
// — the privacy boundary does not move when the fleet grows.
func (s *System) ConnectPool(addrs []string, opts ...splitrt.PoolOption) (*PoolHandle, error) {
	if m := s.edge.Monitor; m != nil { // inherited as ConnectEdge inherits it
		opts = append([]splitrt.PoolOption{splitrt.WithPrivacyTelemetry(m)}, opts...)
	}
	pool, err := splitrt.NewPool(s.split, s.cutLayer, s.edge.Source, s.seed+99, addrs, opts...)
	if err != nil {
		return nil, err
	}
	return &PoolHandle{pool: pool, sys: s}, nil
}

// Pool exposes the underlying fleet client (for gateway construction or
// direct drain control).
func (h *PoolHandle) Pool() *splitrt.Pool { return h.pool }

// Stats snapshots the fleet's health and traffic counters.
func (h *PoolHandle) Stats() splitrt.PoolStats { return h.pool.Stats() }

// Classify runs one image through the fleet.
func (h *PoolHandle) Classify(pixels []float64) (int, error) {
	x, err := h.sys.toBatch(pixels)
	if err != nil {
		return 0, err
	}
	preds, err := h.pool.Classify(x)
	if err != nil {
		return 0, err
	}
	return preds[0], nil
}

// Drain gracefully removes one backend: in-flight calls finish, new calls
// reroute.
func (h *PoolHandle) Drain(addr string) error { return h.pool.Drain(addr) }

// Close drains the pool and closes every backend connection.
func (h *PoolHandle) Close() error { return h.pool.Close() }

// SetWireQuantization switches the edge→cloud transport to linear
// quantization at the given bit width (0 = dense float). 8 bits cuts the
// wire volume several-fold with negligible accuracy impact.
func (h *EdgeHandle) SetWireQuantization(bits int) error {
	return h.client.SetWireQuantization(bits)
}

// BytesSent returns the cumulative bytes the edge has sent to the cloud.
func (h *EdgeHandle) BytesSent() int64 { return h.client.Stats().BytesSent }

// Spans returns the client-side span ring (splitrt.WithSpans), or nil when
// span recording is not configured.
func (h *EdgeHandle) Spans() *obs.SpanRing { return h.client.Spans() }

// LastTrace returns the trace ID of the most recent request — the key
// `shredder audit verify` takes to fetch this query's inclusion proof
// from an audited server's /debug/audit endpoint.
func (h *EdgeHandle) LastTrace() obs.TraceID { return h.client.LastTrace() }

// Classify runs one image through the remote pipeline.
func (h *EdgeHandle) Classify(pixels []float64) (int, error) {
	x, err := h.sys.toBatch(pixels)
	if err != nil {
		return 0, err
	}
	preds, err := h.client.Classify(x)
	if err != nil {
		return 0, err
	}
	return preds[0], nil
}

// Close terminates the client connection.
func (h *EdgeHandle) Close() error { return h.client.Close() }
