package main

// metricDef names one metric of the benchmark. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds; a test
// keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	higher bool    // true when a larger value is better
	bound  float64 // share of the parent's median the metric may worsen by; 0 = not gated
}

// Names of the metrics every workload reports from its untimed-by-trace
// phases. README.md defines each one.
const (
	mSetup      = "setup_s"
	mThroughput = "throughput_rps"
	mP50        = "latency_p50_ms"
	mP95        = "latency_p95_ms"
	mWireBytes  = "wire_bytes_per_req"
	mAllocs     = "allocs_per_req"
	mTrainRate  = "train_samples_per_s"
	mNoisyErr   = "noisy_error"
	mMILoss     = "mi_loss_pct"
	mInVivo     = "in_vivo_privacy"
)

// endToEnd is what a user of the deployed system sees, gated: a later change
// is rejected when one of these worsens by more than its bound.
var endToEnd = []metricDef{
	{mSetup, "s", false, 0.10},
	{mWireBytes, "B", false, 0.01},
	{mAllocs, "allocs", false, 0.03},
	{mNoisyErr, "share", false, 0.10},
	{mMILoss, "%", true, 0.02},
	{mInVivo, "1/SNR", true, 0.02},
}

// ungatedTimings are the four timings the issue listed as end-to-end at a
// bound of 10 %. On the host the bounds are meant for, runs of one commit
// spread wider than that with the serve and train phases at the issue's
// length and at twice it (README.md, "Steadiness evidence"), so by the
// issue's rule they moved to the per-layer list: reported under the same
// names, by traced runs, without a bound. -repeat still prints their spread.
var ungatedTimings = []metricDef{
	{name: mThroughput, unit: "req/s", higher: true},
	{name: mP50, unit: "ms"},
	{name: mP95, unit: "ms"},
	{name: mTrainRate, unit: "samples/s", higher: true},
}

// perLayer metrics carry no bound. All but ungatedTimings come from spans and
// counts the benchmark takes around each layer's public calls.
var perLayer = append(append([]metricDef{}, ungatedTimings...), []metricDef{
	{name: "nn.edge_forward_us", unit: "us"},
	{name: "nn.cloud_forward_us", unit: "us"},
	{name: "nn.cloud_forward_compiled_us", unit: "us"},
	{name: "nn.compile_ms", unit: "ms"},
	{name: "tensor.matmul_f64_gflops", unit: "GFLOP/s", higher: true},
	{name: "tensor.matmul_f32_blocked_gflops", unit: "GFLOP/s", higher: true},
	{name: "tensor.im2col_us", unit: "us"},
	{name: "core.draw_us", unit: "us"},
	{name: "noisedist.sample_us", unit: "us"},
	{name: "quantize.pack_us", unit: "us"},
	{name: "quantize.unpack_us", unit: "us"},
	{name: "splitrt.transport_rtt_us", unit: "us"},
	{name: "splitrt.transport_overhead_us", unit: "us"},
	{name: "splitrt.gateway_hop_us", unit: "us"},
	{name: "splitrt.dial_ms", unit: "ms"},
	{name: "splitrt.reroutes", unit: "count"},
	{name: "splitrt.hedges", unit: "count"},
	{name: "splitrt.redials", unit: "count"},
	{name: "splitrt.errors", unit: "count"},
	{name: "sched.mean_occupancy", unit: "req/batch", higher: true},
	{name: "sched.queue_delay_us", unit: "us"},
	{name: "sched.batches", unit: "count"},
	{name: "audit.append_us", unit: "us"},
	{name: "audit.records_per_batch", unit: "rec/batch", higher: true},
	{name: "core.train_member_s", unit: "s"},
	{name: "core.train_step_ms", unit: "ms"},
	{name: "core.fit_ms", unit: "ms"},
	{name: "core.noise_load_ms", unit: "ms"},
	{name: "core.evaluate_s", unit: "s"},
	{name: "mi.estimate_s", unit: "s"},
	{name: "model.pretrain_s", unit: "s"},
	{name: "data.generate_s", unit: "s"},
	{name: "obs.snapshot_us", unit: "us"},
	{name: "proc.cpu_s_per_kreq", unit: "s/kreq"},
	{name: "proc.alloc_bytes_per_req", unit: "B"},
	{name: "proc.gc_cycles", unit: "count"},
	{name: "proc.gc_pause_total_ms", unit: "ms"},
	{name: "proc.peak_rss_mb", unit: "MB"},
	{name: "proc.goroutines_end", unit: "count"},
	{name: "client.latency_p99_ms", unit: "ms"},
	{name: "client.latency_max_ms", unit: "ms"},
	{name: "client.slice_throughput_iqr_pct", unit: "%"},
	{name: "trace.overhead_pct", unit: "%"},
}...)
