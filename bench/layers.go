package main

import (
	"fmt"
	"os"
	"time"

	"shredder/internal/audit"
	"shredder/internal/core"
	"shredder/internal/mi"
	"shredder/internal/nn"
	"shredder/internal/noisedist"
	"shredder/internal/privacy"
	"shredder/internal/quantize"
	"shredder/internal/splitrt"
	"shredder/internal/tensor"
)

// timeP50 calls f reps times and returns the median duration of a call.
func timeP50(reps int, f func()) time.Duration {
	d := make([]float64, reps)
	for i := range d {
		t0 := time.Now()
		f()
		d[i] = float64(time.Since(t0))
	}
	return time.Duration(median(d))
}

// traced is the extra phase of a traced run: it replays the count list with
// each request taken apart at the layer boundaries, times the layers that
// no request reaches one call at a time, and reduces both to the per-layer
// metrics. It does nothing on an untraced run.
func (r *run) traced(d *deployment) error {
	if r.tr == nil {
		return nil
	}
	dt := nn.Float64
	if r.w.fleet {
		dt = nn.Float32
	}
	from, to := r.shadow.CutIndex+1, r.shadow.Net.Len()
	var plan *nn.CompiledNet
	var err error
	r.values["nn.compile_ms"] = timeP50(5, func() {
		plan, err = nn.CompileRange(r.shadow.Net, from, to, dt)
	}).Seconds() * 1e3
	if err != nil {
		return err
	}
	if err := r.replay(d, plan); err != nil {
		return err
	}
	if err := r.kernels(); err != nil {
		return err
	}
	for _, m := range perLayer {
		r.tr.count(m.name, r.values[m.name], m.unit)
	}
	return nil
}

// replay sends the count list once more, the benchmark doing by hand what
// EdgeClient.Infer does inside, so that a span can close at every layer
// boundary:
//
//	request
//	├─ core.local            Split.Local
//	├─ core.noise            draw + apply
//	│  └─ noisedist.sample   the fitted draw alone (fitted noise only)
//	└─ splitrt.roundtrip     EdgeClient.InferActivation
//	   ├─ quantize.pack      shadow on the 8-bit wire, probe elsewhere
//	   ├─ quantize.unpack    likewise
//	   ├─ nn.cloud_forward   Split.RemoteInfer: shadow where the server is stock
//	   ├─ nn.cloud_forward_compiled   the compiled plan: shadow where the server runs it
//	   └─ splitrt.roundtrip_direct    probe: the same activation sent to one backend, past the gateway
func (r *run) replay(d *deployment, plan *nn.CompiledNet) error {
	src := d.sys.NoiseSource()
	client, err := r.dial(d.addr, nil, r.seed+400)
	if err != nil {
		return err
	}
	defer client.Close()
	var direct *splitrt.EdgeClient
	if r.w.fleet {
		if direct, err = r.dial(d.servers[0].Addr, nil, r.seed+401); err != nil {
			return err
		}
		defer direct.Close()
	}
	// What the served path does behind the round trip decides which
	// in-process repeats count against its self time.
	stock, compiled, quant := kindShadow, kindProbe, kindProbe
	if r.w.fleet {
		stock, compiled, quant = kindProbe, kindShadow, kindShadow
	}
	rng := tensor.NewRNG(r.seed + 402)
	var scratch core.DrawScratch
	shape := append([]int{1}, r.shadow.ActivationShape()...)
	failed := 0
	tr := r.tr
	for i, x := range r.reqs[:r.w.countN] {
		root := tr.begin("request", kindReal, 0, i)
		s := tr.begin("core.local", kindReal, root, i)
		a := r.shadow.Local(x)
		tr.end(s)

		s = tr.begin("core.noise", kindReal, root, i)
		var draw core.Draw
		if src.Mode() == core.ModeStored {
			draw = core.DrawReusing(src, &scratch, rng)
		} else {
			s2 := tr.begin("noisedist.sample", kindReal, s, i)
			draw = core.DrawReusing(src, &scratch, rng)
			tr.end(s2)
		}
		draw.ApplyInPlace(a.Slice(0))
		tr.end(s)

		rt := tr.begin("splitrt.roundtrip", kindReal, root, i)
		_, err := client.InferActivation(ctx, a)
		tr.end(rt)
		tr.end(root)
		if err != nil {
			failed++
			continue
		}

		s = tr.begin("quantize.pack", quant, rt, i)
		scheme, err := quantize.Fit(a, 8)
		if err != nil {
			return err
		}
		packed := scheme.QuantizePacked(a)
		tr.end(s)
		s = tr.begin("quantize.unpack", quant, rt, i)
		if _, err := scheme.DequantizePacked32(packed, shape...); err != nil {
			return err
		}
		tr.end(s)
		s = tr.begin("nn.cloud_forward", stock, rt, i)
		r.shadow.RemoteInfer(a)
		tr.end(s)
		s = tr.begin("nn.cloud_forward_compiled", compiled, rt, i)
		plan.Infer(a)
		tr.end(s)
		if direct != nil {
			s = tr.begin("splitrt.roundtrip_direct", kindProbe, rt, i)
			_, err := direct.InferActivation(ctx, a)
			tr.end(s)
			if err != nil {
				failed++
			}
		}
	}
	if failed > 0 {
		r.problem("trace: %d of %d replayed requests failed", failed, r.w.countN)
	}
	r.addPhase("trace", r.w.countN, failed)

	r.values["nn.edge_forward_us"] = tr.p50us("core.local")
	r.values["nn.cloud_forward_us"] = tr.p50us("nn.cloud_forward")
	r.values["nn.cloud_forward_compiled_us"] = tr.p50us("nn.cloud_forward_compiled")
	r.values["core.draw_us"] = tr.p50us("core.noise")
	r.values["noisedist.sample_us"] = tr.p50us("noisedist.sample")
	r.values["quantize.pack_us"] = tr.p50us("quantize.pack")
	r.values["quantize.unpack_us"] = tr.p50us("quantize.unpack")
	r.values["splitrt.transport_rtt_us"] = tr.p50us("splitrt.roundtrip")
	r.values["splitrt.transport_overhead_us"] = median(tr.selfTimes("splitrt.roundtrip"))
	if direct != nil {
		r.values["splitrt.gateway_hop_us"] = tr.p50us("splitrt.roundtrip") - tr.p50us("splitrt.roundtrip_direct")
	}
	if r.untracedP50 > 0 {
		tracedP50 := tr.p50us("request") * 1e3
		r.values["trace.overhead_pct"] = 100 * (tracedP50 - float64(r.untracedP50)) / float64(r.untracedP50)
	}
	if cov := tr.coverage("request"); cov < 0.9 {
		r.note("trace: the children of request cover only %.1f %% of it", 100*cov)
	}
	return nil
}

// kernels times, one call at a time, the layers a request does not cross or
// that the replay cannot isolate: the matrix kernels on SVHN conv1's shape,
// the audit append, the distribution fit and the MI estimate.
func (r *run) kernels() error {
	// SVHN conv1: 16 -> 16 channels, 3x3, pad 1, on a 32x32 plane: the
	// im2col matrix is 1024 x 144 and the weight matrix 16 x 144.
	const m, k, n = 1024, 144, 16
	geom := tensor.ConvGeom{InC: 16, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}
	rng := tensor.NewRNG(r.seed + 500)
	img := rng.FillNormal(tensor.New(16, 32, 32), 0, 1)
	cols := tensor.New(m, k)
	wts := rng.FillNormal(tensor.New(n, k), 0, 1)
	out := tensor.New(m, n)
	r.values["tensor.im2col_us"] = timeP50(200, func() { tensor.Im2ColInto(cols, img, geom) }).Seconds() * 1e6
	flops := 2.0 * m * k * n // computed from the shapes, not counted
	f64 := timeP50(200, func() { tensor.MatMulT2Into(out, cols, wts) })
	r.values["tensor.matmul_f64_gflops"] = flops / f64.Seconds() / 1e9
	cols32, wts32 := tensor.ToDense[float32](cols), tensor.ToDense[float32](wts)
	out32 := tensor.NewDense[float32](m, n)
	f32 := timeP50(200, func() { tensor.MatMulT2BlockedDense(out32, cols32, wts32) })
	r.values["tensor.matmul_f32_blocked_gflops"] = flops / f32.Seconds() / 1e9

	auditor := audit.New(audit.Options{})
	rec := audit.Record{Model: r.w.network, Cut: r.w.cut, Mode: r.w.noiseMode, Member: -1}
	var appendErr error
	r.values["audit.append_us"] = timeP50(2000, func() {
		rec.Trace++
		if err := auditor.Append(rec); err != nil {
			appendErr = err
		}
	}).Seconds() * 1e6
	if err := auditor.Close(); err != nil {
		return err
	}
	if appendErr != nil {
		return appendErr
	}

	f, err := os.Open(r.noisePath)
	if err != nil {
		return err
	}
	stored, err := core.DecodeCollection(f)
	f.Close()
	if err != nil {
		return err
	}
	var fitErr error
	r.values["core.fit_ms"] = timeP50(5, func() {
		_, fitErr = core.FitCollection(stored, noisedist.Laplace)
	}).Seconds() * 1e3
	if fitErr != nil {
		return fmt.Errorf("fit: %w", fitErr)
	}

	// One of the two estimates core.Evaluate makes: I(x; a) of the clean
	// activations, with the System's estimator settings.
	clean := core.Activations(r.shadow, r.pre.Test, nil, 32, rng)
	t0 := time.Now()
	privacy.MeasureMI(r.pre.Test.Images, clean, mi.Options{K: 3, MaxSamples: 256, Seed: r.seed})
	r.values["mi.estimate_s"] = time.Since(t0).Seconds()
	return nil
}
