// Command shredder is the command-line interface to the Shredder
// reproduction: pre-train a benchmark network, learn a noise collection,
// evaluate privacy/accuracy, and run split inference locally or across a
// TCP edge/cloud pair.
//
// All state is derived deterministically from (network, seed, sizes), so
// separate invocations (e.g. a serve process and an infer process) agree on
// weights as long as they share flags; -cache reuses trained weights on
// disk.
//
// Usage:
//
//	shredder pretrain    -net lenet [-seed 1] [-cache dir]
//	shredder train-noise -net lenet [-count 8] [-out noise.bin]
//	shredder eval        -net lenet [-noise noise.bin]
//	shredder cuts        -net svhn
//	shredder attack      -net lenet -cut conv0 [-noise noise.bin]
//	shredder serve       -net lenet -addr 127.0.0.1:7777 [-dtype float32] [-audit-ledger audit.bin]
//	shredder gateway     -net lenet -backends host1:7777,host2:7777 -addr :9000
//	shredder audit       verify -url http://host:port/debug/audit -trace <hex id>
//	shredder top         -url http://host:port [-interval 2s] [-n 0]
//	shredder infer       -net lenet -addr 127.0.0.1:7777 [-noise noise.bin] [-n 16]
//	shredder profile     -net lenet [-n 50] [-csv profile.csv] [-dtype float32]
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"shredder"
	"shredder/internal/audit"
	"shredder/internal/nn"
	"shredder/internal/obs"
	"shredder/internal/sched"
	"shredder/internal/splitrt"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "pretrain":
		err = cmdPretrain(os.Args[2:])
	case "train-noise":
		err = cmdTrainNoise(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "gateway":
		err = cmdGateway(os.Args[2:])
	case "infer":
		err = cmdInfer(os.Args[2:])
	case "cuts":
		err = cmdCuts(os.Args[2:])
	case "profile":
		err = cmdProfile(os.Args[2:])
	case "attack":
		err = cmdAttack(os.Args[2:])
	case "audit":
		err = cmdAudit(os.Args[2:])
	case "top":
		err = cmdTop(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "shredder: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "shredder:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `shredder — learning noise distributions to protect inference privacy

commands:
  pretrain     pre-train a benchmark network (cached with -cache)
  train-noise  learn a collection of noise tensors and save it
  eval         evaluate accuracy and mutual-information loss
  serve        host the remote (cloud) part of a split network over TCP
  gateway      front a fleet of serve processes: balancing, hedging, drain
  infer        run split inference against a serve or gateway process
  cuts         print the cost model of every cutting point of a network
  profile      time every layer over N warm inferences, per cutting point
  attack       measure inversion/gallery attack resistance of learned noise
  audit        verify an inclusion proof against a server's anchored roots
  top          live dashboard over a serve or gateway debug endpoint

networks: lenet, cifar, svhn, alexnet`)
}

// commonFlags registers the flags shared by every subcommand.
type commonFlags struct {
	net       string
	cut       string
	seed      int64
	trainN    int
	testN     int
	epochs    int
	cache     string
	dtype     string
	noiseMode string
	noiseDist string
}

func registerCommon(fs *flag.FlagSet) *commonFlags {
	c := &commonFlags{}
	fs.StringVar(&c.net, "net", "lenet", "benchmark network (lenet, cifar, svhn, alexnet)")
	fs.StringVar(&c.cut, "cut", "", "cutting point (default: the network's last conv)")
	fs.Int64Var(&c.seed, "seed", 1, "master seed: same seed → identical weights and data")
	fs.IntVar(&c.trainN, "train", 0, "training-set size (0 = network default)")
	fs.IntVar(&c.testN, "test", 0, "test-set size (0 = network default)")
	fs.IntVar(&c.epochs, "epochs", 0, "pre-training epochs (0 = network default)")
	fs.StringVar(&c.cache, "cache", "", "directory for cached pre-trained weights")
	fs.StringVar(&c.dtype, "dtype", "", "arithmetic of the compiled plan every inference runs: float64 (default) or float32; training always runs float64")
	fs.StringVar(&c.noiseMode, "noise-mode", "", "noise deployment: stored (default, replay trained tensors), fitted (sample fresh noise from fitted distributions), fitted-mul (fresh multiplicative a'=a⊙w+n)")
	fs.StringVar(&c.noiseDist, "noise-dist", "", "fitted distribution family: laplace (default) or gaussian")
	return c
}

func (c *commonFlags) system() (*shredder.System, error) {
	return shredder.NewSystem(c.net, shredder.Config{
		Cut: c.cut, Seed: c.seed,
		TrainN: c.trainN, TestN: c.testN, Epochs: c.epochs,
		WeightCacheDir: c.cache, Progress: os.Stderr,
		Dtype:     c.dtype,
		NoiseMode: c.noiseMode, NoiseDist: c.noiseDist,
	})
}

func cmdPretrain(args []string) error {
	fs := flag.NewFlagSet("pretrain", flag.ExitOnError)
	c := registerCommon(fs)
	out := fs.String("out", "", "also save weights to this file")
	fs.Parse(args)
	sys, err := c.system()
	if err != nil {
		return err
	}
	fmt.Printf("%s pre-trained: test accuracy %.2f%%\n", sys.Network(), 100*sys.BaselineAccuracy())
	if *out != "" {
		if err := sys.SaveWeights(*out); err != nil {
			return err
		}
		fmt.Println("weights saved to", *out)
	}
	return nil
}

func cmdTrainNoise(args []string) error {
	fs := flag.NewFlagSet("train-noise", flag.ExitOnError)
	c := registerCommon(fs)
	count := fs.Int("count", 8, "noise tensors in the collection")
	out := fs.String("out", "noise.bin", "output file for the collection")
	scale := fs.Float64("scale", 0, "Laplace init scale b (0 = tuned default)")
	lambda := fs.Float64("lambda", 0, "privacy knob λ (0 = tuned default)")
	nepochs := fs.Float64("noise-epochs", 0, "noise-training epochs, fractional ok (0 = default)")
	selfSup := fs.Bool("self-supervised", false, "train against the model's own predictions")
	mul := fs.Bool("multiplicative", false, "train per-element weights jointly with the noise (a'=a⊙w+n); implied by -noise-mode fitted-mul")
	quiet := fs.Bool("quiet", false, "suppress per-iteration progress lines")
	csvPath := fs.String("csv", "", "append per-evaluation training events to this CSV file")
	fs.Parse(args)
	sys, err := c.system()
	if err != nil {
		return err
	}
	var hooks []obs.Hook
	if !*quiet {
		hooks = append(hooks, obs.ProgressHook(os.Stderr))
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		hooks = append(hooks, obs.CSVHook(f))
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "training %d noise tensors for %s (cut %s)...\n", *count, sys.Network(), sys.Cut())
	}
	sys.LearnNoiseWith(*count, shredder.NoiseOptions{
		Scale: *scale, Lambda: *lambda, Epochs: *nepochs, SelfSupervised: *selfSup,
		Multiplicative: *mul,
		Hook:           obs.Hooks(hooks...),
	})
	if err := sys.SaveNoise(*out); err != nil {
		return err
	}
	fmt.Printf("noise saved to %s (mode %s)\n", *out, sys.NoiseMode())
	return nil
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	c := registerCommon(fs)
	noise := fs.String("noise", "", "noise collection file (default: train 8 fresh tensors)")
	count := fs.Int("count", 8, "collection size when training fresh noise")
	fs.Parse(args)
	sys, err := c.system()
	if err != nil {
		return err
	}
	if *noise != "" {
		if err := sys.LoadNoise(*noise); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(os.Stderr, "no -noise file: training %d fresh noise tensors...\n", *count)
		sys.LearnNoise(*count)
	}
	fmt.Println(sys.Evaluate())
	return nil
}

// telemetryFlags are the window/SLO flags serve and gateway share.
type telemetryFlags struct {
	window, windowBucket, sloIvl time.Duration
	sloPrivacy                   float64
}

func registerTelemetry(fs *flag.FlagSet) *telemetryFlags {
	t := &telemetryFlags{}
	fs.DurationVar(&t.window, "window", 0, "sliding-window span for windowed rates and quantiles in /debug/metrics (0 = off unless an -slo-* flag is set)")
	fs.DurationVar(&t.windowBucket, "window-bucket", 5*time.Second, "bucket granularity at which old observations age out of the window")
	fs.DurationVar(&t.sloIvl, "slo-interval", 0, "SLO evaluation cadence (0 = the window bucket)")
	fs.Float64Var(&t.sloPrivacy, "slo-privacy", 0, "fire an SLO event when the windowed mean in-vivo 1/SNR relayed by telemetry-enabled clients (a gateway: over the whole fleet) drops below this floor (0 = off, negative = the benchmark's tuned privacy target)")
	return t
}

// interpret turns the flags into what they ask for: the objectives — the
// caller's own, then the privacy floor of -slo-privacy, a negative value
// meaning privacyTarget — and the sliding window, nil unless -window or an
// objective wants one. A zero -window-bucket, like a zero -window, leaves the
// count or the granularity to obs.WindowOptions' defaults.
func (t *telemetryFlags) interpret(privacyTarget float64, objectives []obs.Objective) (*obs.WindowOptions, []obs.Objective) {
	if t.sloPrivacy != 0 {
		target := t.sloPrivacy
		if target < 0 {
			target = privacyTarget
		}
		objectives = append(objectives, obs.Objective{
			Name: "privacy.invivo", Metric: "privacy.invivo",
			Aggregate: obs.AggMean, Op: obs.OpAtLeast, Target: target, MinCount: 8,
		})
	}
	if t.window <= 0 && len(objectives) == 0 {
		return nil, objectives
	}
	window := &obs.WindowOptions{Bucket: t.windowBucket}
	if t.window > 0 && t.windowBucket > 0 {
		window.Buckets = max(1, int(t.window/t.windowBucket))
	}
	return window, objectives
}

// options is interpret's result as the options a server or a gateway takes,
// and the objectives among them.
func (t *telemetryFlags) options(privacyTarget float64, objectives []obs.Objective) ([]splitrt.FrontOption, []obs.Objective) {
	window, objectives := t.interpret(privacyTarget, objectives)
	var opts []splitrt.FrontOption
	if window != nil {
		opts = append(opts, splitrt.WithWindows(*window))
	}
	if len(objectives) > 0 {
		opts = append(opts, splitrt.WithSLO(t.sloIvl, objectives...))
	}
	return opts, objectives
}

// backendBases parses -backend-debug: one debug base URL per address of
// -backends, in its order (the gateway labels each by that address). A value
// ending in /debug/metrics — what the flag took when it named that one route
// — is trimmed to its base.
func backendBases(list string, backends []string) ([]string, error) {
	if list == "" {
		return nil, nil
	}
	bases := strings.Split(list, ",")
	if len(bases) != len(backends) {
		return nil, fmt.Errorf("gateway: -backend-debug lists %d URLs for the %d addresses of -backends", len(bases), len(backends))
	}
	for i, b := range bases {
		bases[i] = strings.TrimSuffix(strings.TrimRight(strings.TrimSpace(b), "/"), "/debug/metrics")
	}
	return bases, nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	c := registerCommon(fs)
	addr := fs.String("addr", "127.0.0.1:7777", "listen address")
	idle := fs.Duration("idle-timeout", 5*time.Minute, "drop connections idle longer than this (0 = never)")
	write := fs.Duration("write-timeout", 30*time.Second, "per-response write deadline (0 = none)")
	handler := fs.Duration("handler-timeout", time.Minute, "per-request inference bound (0 = none)")
	batch := fs.Int("batch", 0, "coalesce concurrent requests into batches of up to this many samples (0 = off)")
	batchDelay := fs.Duration("batch-delay", 2*time.Millisecond, "max queueing behind an in-flight batch before a partial batch flushes")
	debugAddr := fs.String("debug-addr", "", "serve /debug/metrics, /debug/spans and pprof on this HTTP address (empty = off)")
	profile := fs.Bool("profile", false, "attach the per-layer profiler (table at /debug/profile; see -debug-addr)")
	telemetry := registerTelemetry(fs)
	sloP99 := fs.Duration("slo-p99", 0, "fire an SLO event when the windowed p99 serving latency exceeds this (0 = off)")
	auditOn := fs.Bool("audit", false, "keep a tamper-evident in-memory audit ledger of served requests (implied by -audit-ledger)")
	auditLedger := fs.String("audit-ledger", "", "append-only file anchoring the audit ledger's Merkle roots (enables -audit)")
	auditBatch := fs.Int("audit-batch", 0, "records per sealed audit batch (0 = default 64)")
	auditDelay := fs.Duration("audit-delay", 0, "max time a record waits in an unsealed batch (0 = default 5ms)")
	fs.Parse(args)
	sys, err := c.system()
	if err != nil {
		return err
	}
	opts := []splitrt.ServerOption{
		splitrt.WithIdleTimeout(*idle),
		splitrt.WithWriteTimeout(*write),
		splitrt.WithHandlerTimeout(*handler),
		splitrt.WithDebugServer(*debugAddr), // "" = none
	}
	if *batch > 0 {
		opts = append(opts, splitrt.WithBatching(sched.Options{MaxBatch: *batch, MaxDelay: *batchDelay}))
	}
	if *profile {
		opts = append(opts, splitrt.WithProfiling())
	}
	var objectives []obs.Objective
	if *sloP99 > 0 {
		objectives = append(objectives, obs.Objective{
			Name: "latency.p99", Metric: "server.latency_seconds",
			Aggregate: obs.AggP99, Op: obs.OpAtMost, Target: sloP99.Seconds(), MinCount: 8,
		})
	}
	front, objectives := telemetry.options(sys.PrivacyTarget(), objectives)
	for _, o := range front {
		opts = append(opts, o)
	}
	if *auditOn || *auditLedger != "" {
		aopts := audit.Options{MaxBatch: *auditBatch, MaxDelay: *auditDelay}
		if *auditLedger != "" {
			led, err := audit.OpenFileLedger(*auditLedger)
			if err != nil {
				return err
			}
			if led.Recovered > 0 {
				fmt.Fprintf(os.Stderr, "audit ledger %s: truncated %d bytes of partial tail from a previous crash\n",
					*auditLedger, led.Recovered)
			}
			aopts.Ledger = led
		}
		opts = append(opts, splitrt.WithAudit(audit.New(aopts)))
	}
	cloud, err := sys.ServeCloud(*addr, opts...)
	if err != nil {
		return err
	}
	batching := ""
	if *batch > 0 {
		batching = fmt.Sprintf(" (micro-batching ≤%d samples, %v delay budget)", *batch, *batchDelay)
	}
	fmt.Printf("cloud part of %s (cut %s, %s) serving on %s%s\n", sys.Network(), sys.Cut(), sys.Dtype(), cloud.Addr, batching)
	if d := cloud.DebugAddr(); d != "" {
		fmt.Printf("debug endpoint on http://%s/debug/metrics\n", d)
		if len(objectives) > 0 {
			fmt.Printf("SLO events on http://%s/debug/events (%d objectives)\n", d, len(objectives))
		}
		if cloud.Auditor() != nil {
			fmt.Printf("audit proofs on http://%s/debug/audit\n", d)
		}
	}
	select {} // serve until killed
}

// cmdGateway fronts a fleet of serve processes with one protocol endpoint:
// edge clients dial the gateway exactly as they would a single server, and
// every request is balanced, rerouted on failure, and (optionally) hedged
// across the backends. The gateway carries no noise collection — the
// activations it relays were noised on the edge devices — so its pool is a
// pure router.
func cmdGateway(args []string) error {
	fs := flag.NewFlagSet("gateway", flag.ExitOnError)
	c := registerCommon(fs)
	addr := fs.String("addr", "127.0.0.1:9000", "gateway listen address")
	backends := fs.String("backends", "", "comma-separated backend addresses (required)")
	balance := fs.String("balance", "roundrobin", "balancing policy: roundrobin, least-inflight, consistent")
	hedgeQ := fs.Float64("hedge-quantile", 0, "hedge a call once it exceeds this quantile of the fastest backend's live latency (0 = hedging off, try 0.95)")
	hedgeMin := fs.Duration("hedge-min", 5*time.Millisecond, "floor for the hedge budget, so cold or fast fleets do not hedge everything")
	healthIvl := fs.Duration("health-interval", time.Second, "how often ejected backends are redialed for readmission")
	ejectAfter := fs.Int("eject-after", 3, "consecutive failures before a backend leaves rotation")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request relay deadline (0 = none)")
	idle := fs.Duration("idle-timeout", 5*time.Minute, "drop client connections idle longer than this (0 = never)")
	debugAddr := fs.String("debug-addr", "", "serve the merged fleet /debug/metrics on this HTTP address (empty = off)")
	backendDebug := fs.String("backend-debug", "", "comma-separated backend debug base URLs (http://host:port, the backend's -debug-addr), one per address of -backends in the same order; the gateway then serves the fleet's merged /debug/metrics and /debug/events and fleet-wide proof lookups at /debug/audit (needs -debug-addr)")
	telemetry := registerTelemetry(fs)
	fs.Parse(args)
	if *backends == "" {
		return fmt.Errorf("gateway: -backends is required")
	}
	addrs := strings.Split(*backends, ",")
	bases, err := backendBases(*backendDebug, addrs)
	if err != nil {
		return err
	}
	if len(bases) > 0 && *debugAddr == "" {
		return fmt.Errorf("gateway: -backend-debug needs -debug-addr: the fleet view is served on the gateway's debug endpoint")
	}
	bal, err := splitrt.BalancerByName(*balance)
	if err != nil {
		return err
	}
	sys, err := c.system()
	if err != nil {
		return err
	}
	poolOpts := []splitrt.PoolOption{
		splitrt.WithBalancer(bal),
		splitrt.WithHealthInterval(*healthIvl),
		splitrt.WithEjectAfter(*ejectAfter),
		splitrt.WithPoolClientOptions(splitrt.WithTimeout(*timeout)),
	}
	if *hedgeQ > 0 {
		poolOpts = append(poolOpts, splitrt.WithHedging(*hedgeQ, *hedgeMin))
	}
	pool, err := sys.ConnectPool(addrs, poolOpts...)
	if err != nil {
		return err
	}
	defer pool.Close()

	gwOpts := []splitrt.GatewayOption{
		splitrt.WithIdleTimeout(*idle),
		splitrt.WithGatewayCallTimeout(*timeout),
		splitrt.WithBackends(bases...),
		splitrt.WithDebugServer(*debugAddr), // "" = none
	}
	front, objectives := telemetry.options(sys.PrivacyTarget(), nil)
	for _, o := range front {
		gwOpts = append(gwOpts, o)
	}
	gw := splitrt.NewGateway(pool.Pool(), gwOpts...)
	bound, err := gw.Serve(*addr)
	if err != nil {
		return err
	}
	fmt.Printf("gateway for %s (cut %s) serving on %s, fronting %d backends (%s balancing)\n",
		sys.Network(), sys.Cut(), bound, len(addrs), *balance)
	if *hedgeQ > 0 {
		fmt.Printf("hedging at the p%.0f budget (floor %v)\n", *hedgeQ*100, *hedgeMin)
	}
	if d := gw.DebugAddr(); d != "" {
		fmt.Printf("merged fleet metrics on http://%s/debug/metrics\n", d)
		if len(objectives) > 0 || len(bases) > 0 {
			fmt.Printf("fleet SLO events on http://%s/debug/events\n", d)
		}
		if len(bases) > 0 {
			fmt.Printf("fleet audit proofs on http://%s/debug/audit\n", d)
		}
	}
	select {} // serve until killed
}

func cmdInfer(args []string) error {
	fs := flag.NewFlagSet("infer", flag.ExitOnError)
	c := registerCommon(fs)
	addr := fs.String("addr", "127.0.0.1:7777", "cloud server address")
	noise := fs.String("noise", "", "noise collection file (empty = send raw activations)")
	n := fs.Int("n", 16, "number of test samples to classify")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request round-trip deadline (0 = none)")
	retries := fs.Int("retries", 3, "reconnect attempts on a broken connection")
	privacySample := fs.Int("privacy-sample", 0, "record live privacy telemetry, computing 1/SNR every N queries (0 = off; needs -noise)")
	fs.Parse(args)
	sys, err := c.system()
	if err != nil {
		return err
	}
	if *noise != "" {
		if err := sys.LoadNoise(*noise); err != nil {
			return err
		}
	}
	if *privacySample > 0 {
		if err := sys.EnablePrivacyTelemetry(obs.NewRegistry(), *privacySample); err != nil {
			return err
		}
	}
	edge, err := sys.ConnectEdge(*addr,
		splitrt.WithTimeout(*timeout),
		splitrt.WithReconnect(*retries, 100*time.Millisecond))
	if err != nil {
		return err
	}
	defer edge.Close()
	correct, classified := 0, min(*n, sys.TestSize())
	for i := 0; i < classified; i++ {
		px, y := sys.TestSample(i)
		got, err := edge.Classify(px)
		if err != nil {
			return err
		}
		mark := " "
		if got == y {
			correct++
			mark = "✓"
		}
		fmt.Printf("sample %3d: predicted %2d, label %2d %s  trace %s\n", i, got, y, mark, edge.LastTrace())
	}
	fmt.Printf("accuracy: %d/%d\n", correct, classified)
	if m := sys.PrivacyMonitor(); m != nil {
		m.WriteSummary(os.Stdout)
	}
	return nil
}

func cmdCuts(args []string) error {
	fs := flag.NewFlagSet("cuts", flag.ExitOnError)
	net := fs.String("net", "lenet", "benchmark network")
	fs.Parse(args)
	cuts, err := shredder.CutPoints(*net)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %14s %14s %16s\n", "cut", "edge MACs", "comm bytes", "KMAC x MB")
	for _, c := range cuts {
		mark := "  "
		if c.Default {
			mark = " *"
		}
		fmt.Printf("%-8s %14d %14d %16.4f%s\n", c.Cut, c.EdgeMACs, c.CommBytes, c.CostKMACMB, mark)
	}
	fmt.Println("(* = default cut: the deepest convolution layer)")
	return nil
}

// cmdProfile runs N warm inferences per cutting point of a network with
// the per-layer profiler attached and prints the breakdown, annotating
// which side of the cut each layer runs on. The layer times themselves do
// not depend on the cut (the full forward pass is identical); what changes
// per cut is the edge/cloud attribution, i.e. where the wire would sit.
func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	c := registerCommon(fs)
	n := fs.Int("n", 50, "timed inferences per cutting point")
	warm := fs.Int("warmup", 5, "warm-up inferences before timing starts")
	csvPath := fs.String("csv", "", "also append per-layer rows to this CSV file")
	fs.Parse(args)
	if c.cache == "" {
		// Each cut builds its own System; a shared cache directory keeps
		// that to one pre-training run instead of one per cut.
		tmp, err := os.MkdirTemp("", "shredder-profile-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		c.cache = tmp
	}
	cuts := []string{c.cut}
	if c.cut == "" {
		reports, err := shredder.CutPoints(c.net)
		if err != nil {
			return err
		}
		cuts = cuts[:0]
		for _, r := range reports {
			cuts = append(cuts, r.Cut)
		}
	}
	var csvW *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintln(f, "network,cut,dtype,layer,side,fwd_calls,fwd_total_s,fwd_mean_s,scratch_bytes")
		csvW = f
	}
	for _, cut := range cuts {
		c.cut = cut
		sys, err := c.system()
		if err != nil {
			return err
		}
		prof := obs.NewProfiler(nil)
		sys.AttachProfiler(prof)
		run := func(k int) error {
			for i := 0; i < k; i++ {
				px, _ := sys.TestSample(i % sys.TestSize())
				if _, err := sys.ClassifyBaseline(px); err != nil {
					return err
				}
			}
			return nil
		}
		if err := run(*warm); err != nil {
			return err
		}
		prof.Reset()
		err = run(*n)
		sys.DetachProfiler()
		if err != nil {
			return err
		}
		fmt.Printf("\n%s cut %s — %d inferences (edge: layers ≤ %s)\n",
			sys.Network(), sys.Cut(), *n, sys.CutLayerName())
		table := prof.Table()
		var total time.Duration
		for _, lp := range table {
			total += lp.ForwardTotal
		}
		fmt.Printf("%-6s %-16s %9s %12s %12s %6s %10s\n",
			"side", "layer", "calls", "total", "mean", "share", "scratch")
		side := "edge"
		for _, lp := range table {
			share := 0.0
			if total > 0 {
				share = 100 * float64(lp.ForwardTotal) / float64(total)
			}
			fmt.Printf("%-6s %-16s %9d %12s %12s %5.1f%% %10d\n",
				side, lp.Layer, lp.ForwardCalls, lp.ForwardTotal.Round(time.Microsecond),
				lp.ForwardMean().Round(100*time.Nanosecond), share, lp.ScratchBytes)
			if csvW != nil {
				fmt.Fprintf(csvW, "%s,%s,%s,%s,%s,%d,%g,%g,%d\n",
					sys.Network(), sys.Cut(), sys.Dtype(), lp.Layer, side, lp.ForwardCalls,
					lp.ForwardTotal.Seconds(), lp.ForwardMean().Seconds(), lp.ScratchBytes)
			}
			// The wire sits after the cut layer. Compiled plans report fused
			// labels like "conv1+relu1[f32]", so match by component.
			if nn.LabelMatches(lp.Layer, sys.CutLayerName()) {
				side = "cloud"
			}
		}
		fmt.Printf("total forward: %s (%.1f ms/inference)\n",
			total.Round(time.Microsecond), total.Seconds()*1000/float64(*n))
	}
	return nil
}

// cmdAudit is the client half of the tamper-evident audit ledger: given a
// trace ID (printed by `shredder infer`, or any EdgeClient's LastTrace),
// `audit verify` fetches the inclusion proof from a server or gateway
// /debug/audit endpoint, recomputes the Merkle root from the proof path,
// and checks it against the endpoint's anchored roots. Exit status is
// non-zero unless the proof verifies — operators script it directly.
// `audit status` prints the ledger summary and anchored roots.
func cmdAudit(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("audit: usage: shredder audit verify|status -url http://host:port/debug/audit [-trace <hex>]")
	}
	sub, rest := args[0], args[1:]
	fs := flag.NewFlagSet("audit "+sub, flag.ExitOnError)
	url := fs.String("url", "", "audit endpoint, e.g. http://127.0.0.1:8080/debug/audit (required)")
	trace := fs.String("trace", "", "trace ID to verify, 16 hex digits (required for verify)")
	timeout := fs.Duration("timeout", 5*time.Second, "HTTP timeout per fetch")
	fs.Parse(rest)
	if *url == "" {
		return fmt.Errorf("audit: -url is required")
	}
	client := &http.Client{Timeout: *timeout}
	switch sub {
	case "verify":
		if *trace == "" {
			return fmt.Errorf("audit verify: -trace is required")
		}
		if _, err := audit.ParseTrace(*trace); err != nil {
			return fmt.Errorf("audit verify: %w", err)
		}
		proof, err := audit.FetchProof(*url, *trace, client)
		if err != nil {
			return err
		}
		roots, err := audit.FetchRoots(*url, client)
		if err != nil {
			return err
		}
		rec, err := proof.VerifyAgainst(roots)
		if err != nil {
			return fmt.Errorf("audit verify: proof REJECTED: %w", err)
		}
		fmt.Printf("proof OK: trace %016x is record %d of %d in sealed batch %d (root %s)\n",
			rec.Trace, proof.Index+1, proof.Count, proof.Seq, proof.Root[:16])
		fmt.Printf("  model %s cut %s, noise mode %s", rec.Model, rec.Cut, rec.Mode)
		switch {
		case rec.Member >= 0:
			fmt.Printf(", member %d", rec.Member)
		case rec.Member == -1:
			fmt.Printf(", fresh per-query sample")
		}
		fmt.Println()
		if rec.Sampled {
			fmt.Printf("  realized in-vivo 1/SNR %.4f\n", rec.InVivo)
		}
		fmt.Printf("  recorded %s, activation digest %x…\n",
			time.Unix(0, rec.UnixNanos).UTC().Format(time.RFC3339Nano), rec.ActDigest[:8])
		return nil
	case "status":
		roots, err := audit.FetchRoots(*url, client)
		if err != nil {
			return err
		}
		records := 0
		for _, r := range roots {
			records += r.Count
		}
		fmt.Printf("%d anchored roots covering %d records at %s\n", len(roots), records, *url)
		for _, r := range roots {
			fmt.Printf("  seq %4d  %3d records  %s  %x…\n",
				r.Seq, r.Count, time.Unix(0, r.UnixNanos).UTC().Format(time.RFC3339), r.Root[:8])
		}
		return nil
	default:
		return fmt.Errorf("audit: unknown subcommand %q (want verify or status)", sub)
	}
}

func cmdAttack(args []string) error {
	fs := flag.NewFlagSet("attack", flag.ExitOnError)
	c := registerCommon(fs)
	noise := fs.String("noise", "", "noise collection file (default: train 4 fresh tensors)")
	samples := fs.Int("samples", 3, "samples to invert")
	steps := fs.Int("steps", 250, "gradient steps per inversion")
	trials := fs.Int("trials", 30, "gallery identification trials")
	fs.Parse(args)
	sys, err := c.system()
	if err != nil {
		return err
	}
	if *noise != "" {
		if err := sys.LoadNoise(*noise); err != nil {
			return err
		}
	} else {
		fmt.Fprintln(os.Stderr, "no -noise file: training 4 fresh noise tensors...")
		sys.LearnNoise(4)
	}
	inv, err := sys.AttackResistance(*samples, *steps)
	if err != nil {
		return err
	}
	fmt.Println(inv)
	gal, err := sys.GalleryAttack(*trials)
	if err != nil {
		return err
	}
	fmt.Println(gal)
	return nil
}
