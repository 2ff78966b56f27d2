package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"shredder"
	"shredder/internal/audit"
	"shredder/internal/core"
	"shredder/internal/model"
	"shredder/internal/nn"
	"shredder/internal/obs"
	"shredder/internal/quantize"
	"shredder/internal/sched"
	"shredder/internal/splitrt"
	"shredder/internal/tensor"
)

// modelSeed is the seed of the deployment under test and of what is counted
// on it: the synthetic dataset, the pre-trained weights, the learned noise,
// System.Evaluate's sampling and the noise draws of the count phase. The
// run's -seed generates the serve traffic — which samples, in which order,
// with which noise draws. Keeping the two apart is what lets the quality
// metrics be compared across runs of different seeds: trained from another
// seed, LeNet's served error moves by 40 % and its in-vivo privacy by 50 %
// (measured over eight seeds), and another thousand noise draws alone move
// the served error by 12 %, which no bound could tell from a regression.
const modelSeed = 1

// numClients is the number of closed-loop clients of the serve phase, one
// per vCPU of the host the bounds were measured on. README.md gives the
// measurements that rule out one client and open-loop load there.
const numClients = 2

// phase counts the operations of one phase of a run.
type phase struct {
	name      string
	attempted int
	failed    int
}

// result is everything one run of one workload measured.
type result struct {
	workload string
	seed     int64
	phases   []phase
	values   map[string]float64 // every metric the run measured, by name
	problems []string           // why correct is false, or what a reader should know
	correct  bool
	timeline []string // wall time of every step, for the run-time budget
	// samples holds, per timed metric that is a median, the repeated
	// measurements of this run it is the median of.
	samples map[string][]float64
}

func (r *result) attempted() (n int) {
	for _, p := range r.phases {
		n += p.attempted
	}
	return n
}

func (r *result) failed() (n int) {
	for _, p := range r.phases {
		n += p.failed
	}
	return n
}

// run is the state of one workload run, handed from phase to phase.
type run struct {
	w      workload
	sc     scale
	seed   int64
	dir    string  // temp dir: weight cache and noise file
	tr     *tracer // nil on an untraced run
	res    *result
	values map[string]float64 // res.values

	bench     model.Benchmark
	pre       *model.Pretrained // the benchmark's own copy of the model and data, from the warm cache
	shadow    *core.Split       // its split: the edge half of every client and all in-process reference calls
	cutLayer  string
	noisePath string
	reqs      []*tensor.Tensor // the count list: the first countN test samples as single-sample batches
	labels    []int            // their labels
	want      []*tensor.Tensor // their in-process reference outputs
	pool      []*tensor.Tensor // serve traffic: the whole test set, dealt by the seed
	plan32    *nn.CompiledNet  // fleet only: the float32 plan behind reference

	served      []float64 // latency of every request of the serve phase, ms
	serveFailed int

	untracedP50    time.Duration // sequential request latency over the count list
	thinPercentile bool          // a percentile fell back to fewer tail samples than the guard asks for
}

// runWorkload runs every phase of w once and returns what it measured. A
// non-nil error means the harness itself could not run (set-up failed); a
// wrong output or a failed request is reported in the result instead.
func runWorkload(w workload, sc scale, seed int64, tmpRoot string, tr *tracer) (*result, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := newRun(w, sc, seed, dir, tr)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"prepare", r.prepare},
		{"train", r.train},
		{"deploy", r.coldStarts},
	}
	for _, s := range steps {
		if err := r.timed(s.name, s.fn); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", w.name, s.name, err)
		}
	}
	if err := r.live(); err != nil { // times its own steps
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	r.reduce()
	if r.res.failed() > 0 {
		r.problem("%d operations failed", r.res.failed())
	}
	return r.res, nil
}

// newRun returns the state of a run that is about to start in dir.
func newRun(w workload, sc scale, seed int64, dir string, tr *tracer) *run {
	r := &run{
		w: w, sc: sc, seed: seed, dir: dir, tr: tr,
		res: &result{workload: w.name, seed: seed, correct: true,
			values: map[string]float64{}, samples: map[string][]float64{}},
	}
	r.values = r.res.values
	if tr != nil {
		for _, m := range perLayer {
			r.values[m.name] = 0 // a layer the workload does not use reports 0
		}
	}
	return r
}

// sample adds one repeated measurement of a metric reported as a median.
func (r *run) sample(metric string, v float64) {
	r.res.samples[metric] = append(r.res.samples[metric], v)
}

// reduce turns the samples of every such metric into its reported value.
func (r *run) reduce() {
	for name, xs := range r.res.samples {
		r.values[name] = median(xs)
	}
}

// timed runs one step of the run between two garbage collections and adds
// its wall time to the timeline.
func (r *run) timed(name string, fn func() error) error {
	runtime.GC()
	t0 := time.Now()
	err := fn()
	r.res.timeline = append(r.res.timeline, fmt.Sprintf("%s %.1fs", name, time.Since(t0).Seconds()))
	return err
}

func (r *run) problem(format string, args ...any) {
	r.res.correct = false
	r.res.problems = append(r.res.problems, fmt.Sprintf(format, args...))
}

// note records something a reader of the result should know that does not
// make it incorrect.
func (r *run) note(format string, args ...any) {
	r.res.problems = append(r.res.problems, fmt.Sprintf(format, args...))
}

// addPhase counts the operations of a phase, adding to its row when the
// phase runs in several parts.
func (r *run) addPhase(name string, attempted, failed int) {
	for i := range r.res.phases {
		if p := &r.res.phases[i]; p.name == name {
			p.attempted += attempted
			p.failed += failed
			return
		}
	}
	r.res.phases = append(r.res.phases, phase{name, attempted, failed})
}

// config is the shredder.Config every System of this run is built from.
func (r *run) config(noiseMode string) shredder.Config {
	return shredder.Config{
		Cut: r.w.cut, Seed: modelSeed, TrainN: r.w.trainN, TestN: r.w.testN, Epochs: r.w.epochs,
		WeightCacheDir: r.dir, NoiseMode: noiseMode,
	}
}

// prepare pre-trains the network into the run's weight cache and builds the
// benchmark's own view of it: the split, the request pool and the reference
// logits. Untimed, except for the two run-time-budget figures.
func (r *run) prepare() error {
	var err error
	if r.bench, err = model.BenchmarkByName(r.w.network); err != nil {
		return err
	}
	if r.cutLayer, err = r.bench.Spec.CutLayer(r.w.cut); err != nil {
		return err
	}
	t0 := time.Now()
	if _, err = shredder.NewSystem(r.w.network, r.config("")); err != nil {
		return err
	}
	r.values["model.pretrain_s"] = time.Since(t0).Seconds()

	tc := model.TrainConfig{TrainN: r.w.trainN, TestN: r.w.testN, Epochs: r.w.epochs, Seed: modelSeed}
	if r.pre, err = model.TrainCached(r.bench.Spec, tc, r.dir); err != nil {
		return err
	}
	shape := r.bench.Spec.Dataset.SampleShape()
	if r.shadow, err = core.NewSplit(r.pre.Net, r.cutLayer, shape); err != nil {
		return err
	}
	if r.w.countN > r.pre.Test.N() {
		return fmt.Errorf("count list of %d exceeds the %d test samples", r.w.countN, r.pre.Test.N())
	}
	single := func(i int) *tensor.Tensor {
		x := tensor.New(append([]int{1}, shape...)...)
		x.CopyFrom(r.pre.Test.Image(i))
		return x
	}
	// The count list is fixed, so that what is counted over it repeats on
	// every run whatever its seed; the seed deals the serve traffic.
	for i := 0; i < r.w.countN; i++ {
		x := single(i)
		want, err := r.reference(x)
		if err != nil {
			return err
		}
		r.reqs, r.labels, r.want = append(r.reqs, x), append(r.labels, r.pre.Test.Labels[i]), append(r.want, want)
	}
	for _, i := range tensor.NewRNG(r.seed).Perm(r.pre.Test.N()) {
		r.pool = append(r.pool, single(i))
	}
	if r.tr != nil {
		t0 = time.Now()
		r.bench.Spec.Dataset.Generate(r.w.trainN+r.w.testN, modelSeed+1000)
		r.values["data.generate_s"] = time.Since(t0).Seconds()
	}
	return nil
}

// reference computes in process what the deployment must serve for x with
// noise off. Behind a stock float64 server and a dense wire that is
// Split.Forward. The fleet quantizes the activation to 8 bits, dequantizes
// it at the gateway and runs the float32 plan, so its reference is that
// same arithmetic, step by step; the model is at chance there, and its
// near-tied logits make an argmax comparison with full precision
// meaningless (a fifth of the samples flip).
func (r *run) reference(x *tensor.Tensor) (*tensor.Tensor, error) {
	if !r.w.fleet {
		return r.shadow.Forward(x), nil
	}
	if r.plan32 == nil {
		plan, err := nn.CompileRange(r.shadow.Net, r.shadow.CutIndex+1, r.shadow.Net.Len(), nn.Float32)
		if err != nil {
			return nil, err
		}
		r.plan32 = plan
	}
	a := r.shadow.Local(x)
	scheme, err := quantize.Fit(a, 8)
	if err != nil {
		return nil, err
	}
	deq, err := scheme.DequantizePacked(scheme.QuantizePacked(a), a.Shape()...)
	if err != nil {
		return nil, err
	}
	return r.plan32.Infer(deq), nil
}

// train learns the noise collection — the paper's method — and stores it
// where every deployment loads it from. Only LearnNoiseWith is timed.
func (r *run) train() error {
	sys, err := shredder.NewSystem(r.w.network, r.config(core.ModeStored))
	if err != nil {
		return err
	}
	epochs := r.w.noise.Epochs
	if epochs == 0 {
		epochs = r.bench.NoiseEpochs
	}
	const batch = 32 // core.NoiseConfig's default, which the System keeps
	steps := math.Ceil(epochs * math.Ceil(float64(r.w.trainN)/batch))
	// Members train GOMAXPROCS at a time.
	workers := min(r.w.members, runtime.GOMAXPROCS(0))
	rounds := (r.w.members + workers - 1) / workers

	runtime.GC()
	t0 := time.Now()
	sys.LearnNoiseWith(r.w.members, r.w.noise)
	wall := time.Since(t0).Seconds()
	r.addPhase("train", r.w.members, 0)
	r.values[mTrainRate] = float64(r.w.members) * epochs * float64(r.w.trainN) / wall
	r.values["core.train_member_s"] = wall / float64(rounds)
	r.values["core.train_step_ms"] = wall / float64(rounds) * 1e3 / steps
	r.noisePath = filepath.Join(r.dir, "noise.gob")
	return sys.SaveNoise(r.noisePath)
}

// deployment is one running instance of the workload's topology.
type deployment struct {
	sys     *shredder.System
	servers []*shredder.CloudHandle
	pool    *shredder.PoolHandle
	gateway *splitrt.Gateway
	addr    string // where edge clients connect: the server, or the gateway
}

// deployTimes are the stopwatch readings of one cold start.
type deployTimes struct {
	ready     time.Duration // NewSystem through the first successful Classify
	noiseLoad time.Duration
	dial      time.Duration
}

// deploy cold-starts the workload: a System on the warm weight cache, the
// stored noise, the server side, an edge connection and one classified
// sample. It returns the deployment still running, the edge closed.
func (r *run) deploy() (*deployment, deployTimes, error) {
	d := &deployment{}
	tm, err := r.coldStart(d)
	if err != nil {
		d.close()
		return nil, tm, err
	}
	return d, tm, nil
}

// coldStart is deploy's sequence; on an error it leaves in d what it had
// started for deploy to close.
func (r *run) coldStart(d *deployment) (tm deployTimes, err error) {
	t0 := time.Now()
	if d.sys, err = shredder.NewSystem(r.w.network, r.config(r.w.noiseMode)); err != nil {
		return tm, err
	}
	t1 := time.Now()
	if err = d.sys.LoadNoise(r.noisePath); err != nil {
		return tm, err
	}
	tm.noiseLoad = time.Since(t1)
	if err = r.startServers(d); err != nil {
		return tm, err
	}
	t1 = time.Now()
	edge, err := d.sys.ConnectEdge(d.addr)
	if err != nil {
		return tm, err
	}
	tm.dial = time.Since(t1)
	defer edge.Close()
	if r.w.fleet {
		if err = edge.SetWireQuantization(8); err != nil {
			return tm, err
		}
	}
	pixels, _ := d.sys.TestSample(0)
	if _, err = edge.Classify(pixels); err != nil {
		return tm, err
	}
	tm.ready = time.Since(t0)
	return tm, nil
}

// startServers brings up the cloud side of d and sets d.addr.
func (r *run) startServers(d *deployment) error {
	if !r.w.fleet {
		h, err := d.sys.ServeCloud("127.0.0.1:0")
		if err != nil {
			return err
		}
		d.servers, d.addr = []*shredder.CloudHandle{h}, h.Addr
		return nil
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		h, err := d.sys.ServeCloud("127.0.0.1:0",
			splitrt.WithDtype(nn.Float32),
			splitrt.WithBatching(sched.Options{MaxBatch: 8, MaxDelay: time.Millisecond}),
			splitrt.WithAudit(audit.New(audit.Options{})),
			splitrt.WithObservability(nil, nil))
		if err != nil {
			return err
		}
		d.servers = append(d.servers, h)
		addrs = append(addrs, h.Addr)
	}
	pool, err := d.sys.ConnectPool(addrs)
	if err != nil {
		return err
	}
	d.pool = pool
	d.gateway = splitrt.NewGateway(pool.Pool())
	d.addr, err = d.gateway.Serve("127.0.0.1:0")
	return err
}

// close stops everything deploy started, front to back.
func (d *deployment) close() error {
	var errs []error
	if d.gateway != nil {
		errs = append(errs, d.gateway.Close())
	}
	if d.pool != nil {
		errs = append(errs, d.pool.Close())
	}
	for _, h := range d.servers {
		errs = append(errs, h.Close())
	}
	return errors.Join(errs...)
}

// dial connects one edge client of the benchmark to addr: the shadow split
// is its edge half, src its noise (nil = none).
func (r *run) dial(addr string, src core.NoiseSource, seed int64, opts ...splitrt.ClientOption) (*splitrt.EdgeClient, error) {
	c, err := splitrt.Dial(addr, r.shadow, r.cutLayer, src, seed, opts...)
	if err != nil {
		return nil, err
	}
	if r.w.fleet {
		if err := c.SetWireQuantization(8); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// goroutineBase returns the goroutine count once it has stopped falling:
// stragglers of an earlier Close (connection handlers seeing EOF, a pool's
// health loop) must not be counted into the base a later count is held to.
func goroutineBase() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		next := runtime.NumGoroutine()
		if next >= n {
			return next
		}
		n = next
	}
	return n
}

// settledGoroutines waits for goroutines that are on their way out after a
// Close and returns the count once it is back at base, or the last count
// after two seconds.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	return n
}

// coldStarts times sc.deploys cold starts, each torn down again, and counts
// goroutines left behind as failed operations.
func (r *run) coldStarts() error {
	base := goroutineBase()
	failed := 0
	for i := 0; i < r.sc.deploys; i++ {
		runtime.GC()
		d, tm, err := r.deploy()
		if err != nil {
			return err
		}
		if err := d.close(); err != nil {
			return err
		}
		if n := settledGoroutines(base); n > base {
			failed++
			r.problem("a cold start left %d goroutines behind", n-base)
			base = n
		}
		r.sample(mSetup, tm.ready.Seconds())
		r.sample("core.noise_load_ms", tm.noiseLoad.Seconds()*1e3)
		r.sample("splitrt.dial_ms", tm.dial.Seconds()*1e3)
	}
	r.addPhase("deploy", r.sc.deploys, failed)
	return nil
}

// live runs the phases that need a running deployment.
func (r *run) live() error {
	base := goroutineBase()
	d, _, err := r.deploy()
	if err != nil {
		return err
	}
	defer d.close()
	on := func(fn func(*deployment) error) func() error { return func() error { return fn(d) } }
	steps := []struct {
		name string
		fn   func() error
	}{
		{"serve", on(r.serve)},
		{"count", on(r.count)},
		{"evaluate", on(r.evaluate)},
		{"trace", on(r.traced)},
	}
	for _, s := range steps {
		if err := r.timed(s.name, s.fn); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	if err := d.close(); err != nil {
		return err
	}
	n := settledGoroutines(base)
	r.values["proc.goroutines_end"] = float64(n - base)
	failed := 0
	if n > base {
		failed = 1
		r.problem("%d goroutines left after close", n-base)
	}
	r.addPhase("close", 1, failed)
	return nil
}

// procUsage is a reading of what the process has consumed so far.
type procUsage struct {
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	maxRSSKiB  int64
}

func readProc() (procUsage, error) {
	var m runtime.MemStats
	var ru syscall.Rusage
	runtime.ReadMemStats(&m)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procUsage{}, err
	}
	return procUsage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: m.TotalAlloc, gcCycles: m.NumGC, gcPause: time.Duration(m.PauseTotalNs),
		maxRSSKiB: ru.Maxrss, // Linux reports KiB
	}, nil
}

// served is one completed request of the serve phase.
type served struct {
	end time.Duration // completion, since the first slice began
	lat time.Duration
}

// serve drives numClients closed-loop clients, each on its own connection,
// through a warm-up and then sc.slices measured slices in one stretch of
// load. Every slice is one sample of throughput, of p50 and of p95.
func (r *run) serve(d *deployment) error {
	// The registry obs.snapshot_us reads: the live server's where it keeps
	// one, the first client's otherwise.
	reg := d.servers[0].Metrics()
	var firstClient []splitrt.ClientOption
	if reg == nil {
		reg = obs.NewRegistry()
		firstClient = []splitrt.ClientOption{splitrt.WithMetrics(reg)}
	}
	clients := make([]*splitrt.EdgeClient, numClients)
	for i := range clients {
		var opts []splitrt.ClientOption
		if i == 0 {
			opts = firstClient
		}
		c, err := r.dial(d.addr, d.sys.NoiseSource(), r.seed+100+int64(i), opts...)
		if err != nil {
			return err
		}
		defer c.Close()
		clients[i] = c
	}
	var pool0 splitrt.PoolStats
	if d.pool != nil {
		pool0 = d.pool.Stats()
	}

	done := make([][]served, len(clients))
	fails := make([]int, len(clients))
	var firstErr error
	var errOnce sync.Once
	var wg sync.WaitGroup
	runtime.GC()
	measureFrom := time.Now().Add(r.sc.warmup)
	deadline := measureFrom.Add(time.Duration(r.sc.slices) * r.sc.slice)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *splitrt.EdgeClient) {
			defer wg.Done()
			order := tensor.NewRNG(r.seed + 200 + int64(i)).Perm(len(r.pool))
			out := make([]served, 0, 1<<16)
			for n := 0; ; n++ {
				x := r.pool[order[n%len(order)]]
				t0 := time.Now()
				_, err := c.Infer(x)
				t1 := time.Now()
				if !t1.Before(deadline) {
					break
				}
				if t1.Before(measureFrom) {
					continue
				}
				if err != nil {
					fails[i]++
					errOnce.Do(func() { firstErr = err })
					continue
				}
				out = append(out, served{end: t1.Sub(measureFrom), lat: t1.Sub(t0)})
			}
			done[i] = out
		}(i, c)
	}
	// Process-level readings bracket the measured slices only.
	time.Sleep(time.Until(measureFrom))
	p0, err := readProc()
	if err != nil {
		return err
	}
	wg.Wait()
	p1, err := readProc()
	if err != nil {
		return err
	}

	perSlice := make([][]float64, r.sc.slices) // latencies in ms
	for i := range done {
		r.serveFailed += fails[i]
		for _, s := range done[i] {
			ms := float64(s.lat) / 1e6
			perSlice[s.end/r.sc.slice] = append(perSlice[s.end/r.sc.slice], ms)
			r.served = append(r.served, ms)
		}
	}
	if firstErr != nil {
		r.problem("serve: %d requests failed, first: %v", r.serveFailed, firstErr)
	}
	if len(r.served) == 0 {
		return errors.New("no request succeeded")
	}
	r.addPhase("serve", len(r.served)+r.serveFailed, r.serveFailed)
	for _, lat := range perSlice {
		r.sample(mThroughput, float64(len(lat))/r.sc.slice.Seconds())
		r.sample(mP50, r.percentile(lat, 0.50))
		r.sample(mP95, r.percentile(lat, 0.95))
	}

	n := float64(len(r.served))
	r.values["client.latency_p99_ms"] = r.percentile(r.served, 0.99)
	r.values["client.latency_max_ms"] = quantileSorted(sorted(r.served), 1)
	r.values["client.slice_throughput_iqr_pct"] = 100 * relSpread(r.res.samples[mThroughput])
	r.values["proc.cpu_s_per_kreq"] = (p1.cpu - p0.cpu).Seconds() / n * 1e3
	r.values["proc.alloc_bytes_per_req"] = float64(p1.allocBytes-p0.allocBytes) / n
	r.values["proc.gc_cycles"] = float64(p1.gcCycles - p0.gcCycles)
	r.values["proc.gc_pause_total_ms"] = (p1.gcPause - p0.gcPause).Seconds() * 1e3
	r.values["proc.peak_rss_mb"] = float64(p1.maxRSSKiB) / 1024

	errs := float64(r.serveFailed)
	redials := 0
	for _, c := range clients {
		redials += c.Stats().Redials
	}
	r.values["splitrt.redials"] = float64(redials)
	if d.pool != nil {
		ps := d.pool.Stats()
		r.values["splitrt.reroutes"] = float64(ps.Reroutes - pool0.Reroutes)
		r.values["splitrt.hedges"] = float64(ps.Hedges - pool0.Hedges)
		for _, b := range ps.Backends {
			errs += float64(b.Errors)
		}
	}
	r.values["splitrt.errors"] = errs
	r.schedAndAudit(d)
	if r.tr != nil {
		r.values["obs.snapshot_us"] = timeP50(50, func() { reg.Snapshot() }).Seconds() * 1e6
	}
	return nil
}

// percentile is the guarded percentile; a slice too short for it (only at
// the quick scale, or on a host far slower than the one the slices were
// sized for) falls back to the plain quantile and says so.
func (r *run) percentile(xs []float64, q float64) float64 {
	v, err := percentile(xs, q)
	if err == nil {
		return v
	}
	if len(xs) == 0 {
		return 0
	}
	if !r.thinPercentile {
		r.thinPercentile = true
		r.note("p%.0f taken from %d samples: %v", q*100, len(xs), err)
	}
	return quantileSorted(sorted(xs), q)
}

// schedAndAudit reads the batching and audit counters of d's servers.
func (r *run) schedAndAudit(d *deployment) {
	var batches, weight, submitted, records, sealed int64
	var delay float64
	for _, h := range d.servers {
		if st, ok := h.BatchStats(); ok {
			batches += st.Batches
			weight += st.Weight
			submitted += st.Submitted
			delay += st.MeanQueueDelay.Seconds() * 1e6 * float64(st.Submitted)
		}
		if a := h.Auditor(); a != nil {
			a.Flush()
			sum := a.Summarize()
			records += sum.Records
			sealed += sum.Batches
		}
	}
	r.values["sched.batches"] = float64(batches)
	r.values["sched.mean_occupancy"] = ratio(float64(weight), float64(batches))
	r.values["sched.queue_delay_us"] = ratio(delay, float64(submitted))
	r.values["audit.records_per_batch"] = ratio(float64(records), float64(sealed))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func argmax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}

func bitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// count sends the fixed request list twice from one sequential client. With
// noise off every served output must equal the in-process reference bit for
// bit. With noise on it takes the metrics that depend on the number of
// requests, not on time: wire bytes, allocations, served accuracy. The noise
// is drawn from modelSeed, not from the run's seed: list and draws fixed, the
// three are exact, and runs of different seeds can be held to a bound.
func (r *run) count(d *deployment) error {
	n := r.w.countN
	clean, err := r.dial(d.addr, nil, 0)
	if err != nil {
		return err
	}
	defer clean.Close()
	errs, mismatches := 0, 0
	for i, x := range r.reqs[:n] {
		logits, err := clean.Infer(x)
		if err != nil {
			errs++
		} else if !bitwiseEqual(logits.Data(), r.want[i].Data()) {
			mismatches++
		}
	}
	if errs+mismatches > 0 {
		r.problem("count: noise off: %d errors, %d of %d outputs differ from the in-process reference", errs, mismatches, n)
	}
	r.addPhase("count/clean", n, errs+mismatches)

	noisy, err := r.dial(d.addr, d.sys.NoiseSource(), modelSeed+301)
	if err != nil {
		return err
	}
	defer noisy.Close()
	lat := make([]float64, 0, n)
	wrong, errs := 0, 0
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	st0 := noisy.Stats()
	for i, x := range r.reqs[:n] {
		t0 := time.Now()
		logits, err := noisy.Infer(x)
		dt := time.Since(t0)
		if err != nil {
			errs++
			continue
		}
		lat = append(lat, float64(dt))
		if argmax(logits.Data()) != r.labels[i] {
			wrong++
		}
	}
	st1 := noisy.Stats()
	runtime.ReadMemStats(&m1)
	if errs > 0 {
		r.problem("count: noise on: %d of %d requests failed", errs, n)
	}
	r.addPhase("count/noisy", n, errs)
	r.values[mWireBytes] = float64(st1.BytesSent-st0.BytesSent+st1.BytesReceived-st0.BytesReceived) / float64(n)
	r.values[mAllocs] = float64(m1.Mallocs-m0.Mallocs) / float64(n)
	r.values[mNoisyErr] = float64(wrong) / float64(n)
	r.untracedP50 = time.Duration(median(lat))
	return nil
}

// evaluate takes the paper's Table 1 quantities from the serving System.
func (r *run) evaluate(d *deployment) error {
	t0 := time.Now()
	rep := d.sys.Evaluate()
	r.values["core.evaluate_s"] = time.Since(t0).Seconds()
	r.values[mMILoss] = rep.MILossPct
	r.values[mInVivo] = rep.InVivoPrivacy
	r.addPhase("evaluate", 1, 0)
	return nil
}

// ctx is the context of the benchmark's transport-only calls: never
// cancelled, so the client starts no watcher goroutine per request.
var ctx = context.Background()
