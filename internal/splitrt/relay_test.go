package splitrt

// The relay path — edge → gateway → pool → backend with the request handed
// on as decoded — pinned as properties: what is served and what is audited
// do not depend on the topology a request crossed, a request that cannot be
// served is refused where it first arrives, and the hop allocates what it
// is measured to allocate.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"shredder/internal/audit"
	"shredder/internal/core"
	"shredder/internal/model"
	"shredder/internal/nn"
	"shredder/internal/obs"
	"shredder/internal/quantize"
	"shredder/internal/race"
	"shredder/internal/sched"
	"shredder/internal/tensor"
)

// lenetSplit trains a tiny LeNet and splits it at conv2: a remote part with
// real arithmetic in it, where float32 and float64 plans give different
// bits, and the cut the allocation pins are measured at.
func lenetSplit(t *testing.T) (*core.Split, *model.Pretrained, string) {
	return lenetSplitAt(t, "conv2")
}

// lenetSplitAt is lenetSplit at another of LeNet's cuts.
func lenetSplitAt(t *testing.T, cut string) (*core.Split, *model.Pretrained, string) {
	t.Helper()
	pre, err := model.Train(model.LeNet(), model.TrainConfig{TrainN: 64, TestN: 16, Epochs: 1, Seed: 40})
	if err != nil {
		t.Fatal(err)
	}
	cutLayer, err := pre.Spec.CutLayer(cut)
	if err != nil {
		t.Fatal(err)
	}
	split, err := core.NewSplit(pre.Net, cutLayer, pre.Spec.Dataset.SampleShape())
	if err != nil {
		t.Fatal(err)
	}
	return split, pre, cutLayer
}

// serve starts a server for split and closes it with the test.
func serve(t *testing.T, split *core.Split, cutLayer string, opts ...ServerOption) (*CloudServer, string) {
	t.Helper()
	srv := NewCloudServer(split, cutLayer, opts...)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

// front puts a pool over addrs and a gateway in front of it, both closed
// with the test, and returns them with the gateway's address.
func front(t *testing.T, split *core.Split, cutLayer string, addrs []string, opts ...PoolOption) (*Pool, *Gateway, string) {
	t.Helper()
	pool, err := NewPool(split, cutLayer, nil, 1, addrs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	gw := NewGateway(pool)
	addr, err := gw.Serve("127.0.0.1:0")
	if err != nil {
		pool.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close(); pool.Close() })
	return pool, gw, addr
}

// wireReference is what a server running plan must answer for activation a
// sent at the given wire width, computed in process by the two-step public
// route: dequantize to float64, then the plan (which narrows, if it is a
// float32 one).
func wireReference(t *testing.T, plan *nn.CompiledNet, a *tensor.Tensor, bits int) *tensor.Tensor {
	t.Helper()
	if bits == 0 {
		return plan.Infer(a)
	}
	scheme, err := quantize.Fit(a, bits)
	if err != nil {
		t.Fatal(err)
	}
	deq, err := scheme.DequantizePacked(scheme.QuantizePacked(a), a.Shape()...)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Infer(deq)
}

// auditRecordOf finds the record of one trace in whichever server's audit
// trail holds it.
func auditRecordOf(t *testing.T, trace obs.TraceID, servers ...*CloudServer) audit.Record {
	t.Helper()
	for _, srv := range servers {
		srv.Auditor().Flush()
		if proof, ok := srv.Auditor().ProofByTrace(uint64(trace)); ok {
			rec, err := proof.Verify()
			if err != nil {
				t.Fatalf("trace %s: %v", trace, err)
			}
			return rec
		}
	}
	t.Fatalf("trace %s is in no server's audit trail", trace)
	return audit.Record{}
}

// TestRelayEquivalence: for every wire width, server dtype and batching
// setting, a request served directly, through a gateway, and through a
// gateway whose pool hedges it, gets logits bit-equal to the in-process
// reference, and the audit record under the edge's own trace carries the
// same activation digest, mode, member and in-vivo value on all three
// routes.
func TestRelayEquivalence(t *testing.T) {
	split, pre, cutLayer := lenetSplit(t)
	rng := tensor.NewRNG(9)
	noise := &core.Collection{Shape: split.ActivationShape(), InVivo: []float64{1, 1}}
	for range noise.InVivo {
		noise.Members = append(noise.Members, rng.FillNormal(tensor.New(split.ActivationShape()...), 0, 0.5))
	}
	var inputs []*tensor.Tensor
	for _, b := range pre.Test.Batches(1)[:5] {
		inputs = append(inputs, b.Images)
	}
	const clientSeed = 77

	for _, dtype := range []nn.Dtype{nn.Float64, nn.Float32} {
		for _, maxBatch := range []int{0, 8} {
			name := fmt.Sprintf("%v/batch%d", dtype, maxBatch)
			plan, err := nn.CompileRange(split.Net, split.CutIndex+1, split.Net.Len(), dtype)
			if err != nil {
				t.Fatal(err)
			}
			opts := func() []ServerOption {
				o := []ServerOption{WithDtype(dtype), WithAudit(audit.New(audit.Options{})), WithObservability(nil, nil)}
				if maxBatch > 0 {
					o = append(o, WithBatching(sched.Options{MaxBatch: maxBatch, MaxDelay: time.Millisecond}))
				}
				return o
			}
			fast, fastAddr := serve(t, split, cutLayer, opts()...)
			slow, slowAddr := serve(t, split, cutLayer, append(opts(), WithLatencyInjection(25*time.Millisecond))...)
			_, _, gwAddr := front(t, split, cutLayer, []string{fastAddr})
			hedging, _, hedgedAddr := front(t, split, cutLayer, []string{fastAddr, slowAddr}, WithHedging(0.5, time.Millisecond))
			// A hedge fires only once the fast backend's latency is known.
			warm := split.Local(inputs[0])
			for i := 0; i < 40; i++ {
				if _, err := hedging.InferActivation(context.Background(), warm); err != nil {
					t.Fatalf("%s: warm-up: %v", name, err)
				}
			}
			hedges0 := hedging.Stats().Hedges

			for _, bits := range []int{0, 4, 8, 16} {
				var direct []audit.Record
				for _, route := range []struct{ name, addr string }{
					{"direct", fastAddr}, {"gateway", gwAddr}, {"hedged", hedgedAddr},
				} {
					where := fmt.Sprintf("%s/%d bits/%s", name, bits, route.name)
					mon := core.NewPrivacyMonitor(obs.NewRegistry(), noise, 1, 1)
					client, err := Dial(route.addr, split, cutLayer, noise, clientSeed, WithPrivacyTelemetry(mon))
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if err := client.SetWireQuantization(bits); err != nil {
						t.Fatal(err)
					}
					// The client's draws, repeated: same seed, same order.
					mirror := tensor.NewRNG(clientSeed)
					var scratch core.DrawScratch
					for i, x := range inputs {
						got, err := client.Infer(x)
						if err != nil {
							t.Fatalf("%s: request %d: %v", where, i, err)
						}
						a := split.Local(x)
						noise.DrawInto(&scratch, mirror).ApplyInPlace(a)
						if want := wireReference(t, plan, a, bits); !sameBits(got, want) {
							t.Fatalf("%s: request %d: served logits differ from the in-process reference", where, i)
						}
						if bits == 0 && dtype == nn.Float64 && !sameBits(got, split.RemoteInfer(a)) {
							t.Fatalf("%s: request %d: served logits differ from Split.RemoteInfer", where, i)
						}
						rec := auditRecordOf(t, client.LastTrace(), fast, slow)
						if rec.Mode != core.ModeStored || rec.Member < 0 || !rec.Sampled || rec.InVivo <= 0 {
							t.Fatalf("%s: request %d: record carries no attribution: %+v", where, i, rec)
						}
						if route.name == "direct" {
							direct = append(direct, rec)
							continue
						}
						d := direct[i]
						if rec.ActDigest != d.ActDigest || rec.Mode != d.Mode || rec.Member != d.Member ||
							rec.InVivo != d.InVivo || rec.Sampled != d.Sampled {
							t.Fatalf("%s: request %d: audit record differs from the direct route's:\n got %+v\nwant %+v", where, i, rec, d)
						}
					}
					client.Close()
				}
			}
			if hedging.Stats().Hedges == hedges0 {
				t.Errorf("%s: the slow backend forced no hedge", name)
			}
		}
	}
}

// TestBatchStacksMixedPayloads holds a float32 batching server's first
// flight until dense, 4-bit and 8-bit requests have queued behind it, so
// that they are stacked into one forward pass: each must still get the
// logits it would have got alone.
func TestBatchStacksMixedPayloads(t *testing.T) {
	split, pre, cutLayer := lenetSplit(t)
	plan, err := nn.CompileRange(split.Net, split.CutIndex+1, split.Net.Len(), nn.Float32)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(gate) }) }
	srv, addr := serve(t, split, cutLayer, WithDtype(nn.Float32),
		WithBatching(sched.Options{MaxBatch: 8, MaxDelay: time.Minute}),
		withFault(func(*tensor.Tensor) { <-gate }))
	t.Cleanup(open)

	widths := []int{0, 0, 8, 4, 8, 0}
	batches := pre.Test.Batches(1)
	errs := make(chan error, len(widths))
	var wg sync.WaitGroup
	for i, bits := range widths {
		if i == 1 {
			// The first request is in flight, blocked; the rest queue.
			waitFor(t, func() bool { st, _ := srv.BatchStats(); return st.Batches == 1 })
		}
		client, err := Dial(addr, split, cutLayer, nil, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		if err := client.SetWireQuantization(bits); err != nil {
			t.Fatal(err)
		}
		a := split.Local(batches[i].Images)
		want := wireReference(t, plan, a, bits)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := client.InferActivation(context.Background(), a)
			if err == nil && !sameBits(got, want) {
				err = errors.New("logits differ from the request served alone")
			}
			if err != nil {
				errs <- fmt.Errorf("request %d: %w", i, err)
			}
		}(i)
	}
	waitFor(t, func() bool { st, _ := srv.BatchStats(); return st.Submitted == int64(len(widths)) })
	open()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st, _ := srv.BatchStats(); st.Batches != 2 || st.Weight != int64(len(widths)) {
		t.Fatalf("the queued requests were not stacked into one batch: %+v", st)
	}
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition not met within 10s")
		}
	}
}

// TestGatewayRefusesBadRequestsItself: a quantized request that is
// malformed, carries no valid scheme, or declares another shape than the
// split's is answered with ErrBadRequest by the gateway, counted in
// gateway.errors, and never reaches a backend.
func TestGatewayRefusesBadRequestsItself(t *testing.T) {
	split, servers, addrs := fleetRig(t, 2, WithObservability(nil, nil))
	pool, gw, gwAddr := front(t, split, "cut", addrs)
	conn, err := net.Dial("tcp", gwAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	peer := newTestPeer(conn)
	if ack, err := peer.hello(hello{Version: protoVersion, Network: "obsnet", CutLayer: "cut"}); err != nil || !ack.OK {
		t.Fatalf("handshake failed: %v %+v", err, ack)
	}
	quant := func(lo, hi float64, shape ...int) []byte {
		q := codedQuant(8, lo, hi, shape, make([]byte, tensor.Volume(shape)))
		return (&request{ID: 3, Trace: 9, Quant: q}).appendFrame(nil)
	}
	contradictory := append([]byte{0, 0, 0, 0}, hostileRequests()["quant against length"]...)
	endFrame(contradictory)
	errorsCounter := gw.reg.Counter("gateway.errors")
	for name, c := range map[string]struct {
		frame []byte
		want  string
	}{
		"wrong shape":    {quant(0, 1, 1, 3, 3, 3), "does not match expected"},
		"missing batch":  {quant(0, 1, 1, 2, 2), "does not match expected"},
		"inverted range": {quant(1, -1, 1, 1, 2, 2), "bad quantization scheme"},
		"malformed":      {contradictory, "malformed frame"},
		"no payload":     {(&request{ID: 3}).appendFrame(nil), "missing activation"},
	} {
		before := errorsCounter.Value()
		if _, err := conn.Write(c.frame); err != nil {
			t.Fatal(err)
		}
		resp, err := peer.readResponse()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp.Kind != ErrBadRequest || !strings.Contains(resp.Err, c.want) {
			t.Errorf("%s: answered %v %q, want a bad request mentioning %q", name, resp.Kind, resp.Err, c.want)
		}
		if got := errorsCounter.Value() - before; got != 1 {
			t.Errorf("%s: gateway.errors moved by %d", name, got)
		}
	}
	// The connection survives all of it, and only now does a backend hear
	// from the gateway.
	for _, srv := range servers {
		if n := srv.Metrics().Counter("server.requests").Value(); n != 0 {
			t.Fatalf("a backend received %d requests the gateway should have refused", n)
		}
	}
	if st := pool.Stats(); st.Requests != 0 {
		t.Fatalf("the pool was asked to route %d refused requests", st.Requests)
	}
	if _, err := conn.Write(quant(0, 1, 1, 1, 2, 2)); err != nil {
		t.Fatal(err)
	}
	if resp, err := peer.readResponse(); err != nil || resp.Err != "" || resp.Logits == nil {
		t.Fatalf("a good request after the bad ones: %+v, %v", resp, err)
	}
}

// TestRelayedPackedRequestSurvivesBackendKill is TestPoolKillBackendMidLoad
// one hop further out: 8-bit edge clients behind a gateway, one of three
// backends closed while their requests are in flight. Every call must be
// answered, bit-equal to the reference, by rerouting the packed request.
func TestRelayedPackedRequestSurvivesBackendKill(t *testing.T) {
	split, servers, addrs := fleetRig(t, 3)
	pool, _, gwAddr := front(t, split, "cut", addrs, WithHealthInterval(time.Hour), WithEjectAfter(1))

	const workers, perWorker = 6, 25
	plan, err := nn.CompileRange(split.Net, split.CutIndex+1, split.Net.Len(), nn.Float64)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		client, err := Dial(gwAddr, split, "cut", nil, int64(w))
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		if err := client.SetWireQuantization(8); err != nil {
			t.Fatal(err)
		}
		var acts, wants [perWorker]*tensor.Tensor
		for i := range acts {
			x, _ := poolInput(w*perWorker + i)
			acts[i] = split.Local(x)
			wants[i] = wireReference(t, plan, acts[i], 8)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i, a := range acts {
				if w == 0 && i == perWorker/4 {
					servers[1].Close()
				}
				got, err := client.InferActivation(context.Background(), a)
				if err != nil {
					errs <- err
				} else if !sameBits(got, wants[i]) {
					errs <- errors.New("wrong logits after reroute")
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("call failed: %v", err)
	}
	for _, b := range pool.Stats().Backends {
		if b.Addr == addrs[1] && b.State == BackendHealthy.String() {
			t.Errorf("killed backend still in rotation: %+v", b)
		}
	}
}

// TestLockstepServerReusesRequestBuffers: an unbatched server decodes every
// request of a connection into the buffers of the one before — except after
// a handler timeout, whose abandoned forward pass is still reading them.
func TestLockstepServerReusesRequestBuffers(t *testing.T) {
	gate := make(chan struct{})
	seen := make(chan *tensor.Tensor, 8)
	stale := make(chan float64, 1)
	split, _, addr := identityRig(t, WithHandlerTimeout(50*time.Millisecond), withFault(func(act *tensor.Tensor) {
		seen <- act
		if act.Data()[0] == trapValue {
			<-gate                 // overrun the handler timeout …
			stale <- act.Data()[0] // … and read the activation afterwards
		}
	}))
	client, err := Dial(addr, split, "cut", nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	send := func(v float64) (*tensor.Tensor, error) {
		if _, err := client.InferActivation(context.Background(), tensor.New(1, 1, 2, 2).Fill(v)); err != nil {
			return nil, err
		}
		return <-seen, nil
	}

	first, err := send(1)
	if err != nil {
		t.Fatal(err)
	}
	second, err := send(2)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("the second request was not decoded into the first one's tensor")
	}

	var remote *RemoteError
	if _, err := client.InferActivation(context.Background(), tensor.New(1, 1, 2, 2).Fill(trapValue)); !errors.As(err, &remote) || remote.Kind != ErrTimeout {
		t.Fatalf("the blocked request: %v, want a handler timeout", err)
	}
	abandoned := <-seen
	next, err := send(3)
	if err != nil {
		t.Fatal(err)
	}
	if next == abandoned {
		t.Fatal("a request was decoded into the tensor an abandoned forward pass is still reading")
	}
	close(gate)
	if v := <-stale; v != trapValue {
		t.Fatalf("the abandoned forward pass read %v from its activation, sent %v", v, trapValue)
	}
	if again, err := send(4); err != nil || again != next {
		t.Fatalf("reuse did not resume after the timeout: %v", err)
	}
}

// TestPooledRequestStateNotReusedAfterTimeout is the same rule on a batching
// server, whose requests are answered on their own goroutines from pooled
// states: a request whose batch overran the handler timeout forfeits its
// state — the abandoned flight still reads its activation and writes its
// logits — so the next request is decoded into other tensors, and is answered
// with its own logits whatever the abandoned pass writes afterwards.
func TestPooledRequestStateNotReusedAfterTimeout(t *testing.T) {
	gate := make(chan struct{})
	seen := make(chan *tensor.Tensor, 8)
	stale := make(chan float64, 1)
	split, srv, addr := identityRig(t,
		WithBatching(sched.Options{MaxBatch: 4, MaxDelay: time.Millisecond}),
		WithHandlerTimeout(50*time.Millisecond), withFault(func(act *tensor.Tensor) {
			seen <- act
			if act.Data()[0] == trapValue {
				<-gate                 // overrun the handler timeout …
				stale <- act.Data()[0] // … and read the activation afterwards
			}
		}))
	idle := func() int {
		srv.states.mu.Lock()
		defer srv.states.mu.Unlock()
		return len(srv.states.idle)
	}
	client, err := Dial(addr, split, "cut", nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	send := func(v float64) (*tensor.Tensor, error) {
		got, err := client.InferActivation(context.Background(), tensor.New(1, 1, 2, 2).Fill(v))
		if err != nil {
			return nil, err
		}
		if got.Data()[0] != v {
			t.Errorf("request %v answered with logits of %v", v, got.Data()[0])
		}
		// The state goes back once the response is written: wait for it, or
		// the next request may find the list still empty.
		for deadline := time.Now().Add(5 * time.Second); idle() == 0; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatal("the answered request's state never came back")
			}
		}
		return <-seen, nil
	}

	first, err := send(1)
	if err != nil {
		t.Fatal(err)
	}
	if second, err := send(2); err != nil || second != first {
		t.Fatalf("the second request did not run in the first one's state: %v", err)
	}
	var remote *RemoteError
	if _, err := client.InferActivation(context.Background(), tensor.New(1, 1, 2, 2).Fill(trapValue)); !errors.As(err, &remote) || remote.Kind != ErrTimeout {
		t.Fatalf("the blocked request: %v, want a handler timeout", err)
	}
	if abandoned := <-seen; abandoned != first {
		t.Fatal("the timed-out request did not run in the pooled state")
	}
	if n := idle(); n != 0 {
		t.Fatalf("%d states on the free list with the only one ever made still read by an abandoned pass", n)
	}
	next, err := send(3)
	if err != nil {
		t.Fatal(err)
	}
	if next == first {
		t.Fatal("a request was decoded into the tensor an abandoned forward pass is still reading")
	}
	close(gate)
	if v := <-stale; v != trapValue {
		t.Fatalf("the abandoned forward pass read %v from its activation, sent %v", v, trapValue)
	}
	if again, err := send(4); err != nil || again != next {
		t.Fatalf("reuse did not resume after the timeout: %v", err)
	}
}

// TestCancelAfterResponseDoesNotPoisonNextRequest races a cancellation
// against the arrival of the response, over and over: whichever wins, the
// poke it may have fired must never fail the request after it.
func TestCancelAfterResponseDoesNotPoisonNextRequest(t *testing.T) {
	split, _, addr := identityRig(t)
	client, err := Dial(addr, split, "cut", nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	x, want := poolInput(2)
	a := split.Local(x)
	for i := 0; i < 300; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(time.Duration(i%40) * 5 * time.Microsecond)
			cancel()
		}()
		if _, err := client.InferActivation(ctx, a); err != nil && !errors.Is(err, context.Canceled) {
			// A cancelled read surfaces as the transport's timeout.
			var nerr net.Error
			if !errors.As(err, &nerr) || !nerr.Timeout() {
				t.Fatalf("round %d: cancelled call failed with %v", i, err)
			}
		}
		cancel()
		got, err := client.InferActivation(context.Background(), a)
		if err != nil {
			t.Fatalf("round %d: the request after a cancelled one failed: %v", i, err)
		}
		if !tensor.Equal(got, want) {
			t.Fatalf("round %d: wrong logits after a cancelled request", i)
		}
	}
}

// TestQuantTagMatchesFmt: the digest tag built without fmt is the string
// fmt built when the ledgers on disk were written, shortest and longest.
func TestQuantTagMatchesFmt(t *testing.T) {
	for _, q := range []quantPayload{
		{Bits: 8, Lo: -1.5, Hi: 2.25}, {Bits: 1, Lo: 0, Hi: 1e-9}, {Bits: 16, Lo: -1e21, Hi: 1e20},
		{Bits: 4, Lo: -0.000012345678901234567, Hi: 123456789.125}, {Bits: 12, Lo: 5e-324, Hi: 1.7976931348623157e308},
	} {
		q.Shape, q.Packed = []int{1, 2}, []byte{7, 9}
		tag := fmt.Sprintf("quant/%d/%g/%g", q.Bits, q.Lo, q.Hi)
		if digestRequest(new(audit.Digester), &request{Quant: &q}) != audit.DigestActivation(tag, q.Shape, q.Packed) {
			t.Errorf("the digest of a payload tagged %q is not the one fmt's tag gives", tag)
		}
	}
}

// TestPoolPickAllocatesNothing pins choosing a backend, with every backend
// healthy and nothing tried yet, at zero allocations.
func TestPoolPickAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	split, _, addrs := fleetRig(t, 3)
	pool, err := NewPool(split, "cut", nil, 1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if n := testing.AllocsPerRun(200, func() {
		if pool.pick(nil, nil) == nil {
			t.Error("no backend picked")
		}
	}); n != 0 {
		t.Fatalf("picking among healthy backends allocates %v times", n)
	}
}

// gatewayRelayAllocCeiling bounds one warm 8-bit InferActivation through
// the whole fleet path — edge client, gateway, pool, and a batched float32
// audited server with observability on, the fleet benchmark's server —
// every goroutine of the process counted, every ring wrapped. What is left is
// the caller's logits, header and data (DESIGN §5l): the audit record is
// encoded into the pending batch's buffer and sealed into a proof-ring slot
// that keeps its storage, the server's span is copied into a span-ring slot
// that keeps its own, the batch's result list is the flight's, and the end of
// the accepting connection reaches the pool client's blocked read through the
// request state's watch. Measured: 2.
const gatewayRelayAllocCeiling = 3

func TestWarmGatewayRelayAllocationCeiling(t *testing.T) {
	for _, cut := range fleetCuts {
		t.Run(cut.layer, func(t *testing.T) { warmFleetServerAllocations(t, cut, true, 1, gatewayRelayAllocCeiling) })
	}
}

// batchedServeAllocCeiling is the same request sent straight to that server,
// without gateway and pool. Measured: 2, the caller's logits.
const batchedServeAllocCeiling = 3

func TestWarmBatchedAuditedServeAllocationCeiling(t *testing.T) {
	for _, cut := range fleetCuts {
		t.Run(cut.layer, func(t *testing.T) { warmFleetServerAllocations(t, cut, false, 1, batchedServeAllocCeiling) })
	}
}

// TestRelayWatchFourConnectionsAllocateLikeOne: the gateway's relay keeps
// nothing per edge connection that the next connection's request has to
// rebuild — four edge connections taking turns through one gateway (and so
// through the same two-deep chain of pool client and backend connection)
// allocate per request what one connection does.
func TestRelayWatchFourConnectionsAllocateLikeOne(t *testing.T) {
	cut := fleetCuts[len(fleetCuts)-1]
	one := warmFleetServerAllocations(t, cut, true, 1, gatewayRelayAllocCeiling)
	four := warmFleetServerAllocations(t, cut, true, 4, gatewayRelayAllocCeiling)
	if four != one {
		t.Fatalf("a warm relayed request allocates %v times with four edge connections interleaving, %v with one", four, one)
	}
}

// fleetCut is a LeNet cut the fleet allocation ceilings hold at, with the
// form its 8-bit payload goes out in: at conv2 the activation is too short for
// a code to pay and goes stored, at conv0 it goes coded, as the fleet
// benchmark's does. The server decodes the two forms by different paths.
type fleetCut struct {
	layer string
	form  byte
}

var fleetCuts = []fleetCut{{"conv2", 0}, {"conv0", 1}}

// warmFleetServerAllocations counts the allocations of one warm 8-bit
// InferActivation at cut against the fleet benchmark's server, direct or
// through a gateway and its pool, from clients connections taking turns.
func warmFleetServerAllocations(t *testing.T, cut fleetCut, fronted bool, clients int, ceiling float64) float64 {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	split, pre, cutLayer := lenetSplitAt(t, cut.layer)
	_, addr := serve(t, split, cutLayer,
		WithDtype(nn.Float32),
		WithBatching(sched.Options{MaxBatch: 8, MaxDelay: time.Millisecond}),
		WithAudit(audit.New(audit.Options{})),
		WithObservability(nil, nil))
	if fronted {
		_, _, addr = front(t, split, cutLayer, []string{addr})
	}
	edges := make([]*EdgeClient, clients)
	for i := range edges {
		client, err := Dial(addr, split, cutLayer, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		if err := client.SetWireQuantization(8); err != nil {
			t.Fatal(err)
		}
		edges[i] = client
	}
	act := split.Local(pre.Test.Batches(1)[0].Images)
	ctx := context.Background()
	turn := 0
	infer := func() {
		turn++
		if _, err := edges[turn%clients].InferActivation(ctx, act); err != nil {
			t.Fatal(err)
		}
	}
	// Warm means every ring has wrapped: the proof ring keeps 256 batches and
	// the span ring 256 spans, and a slot builds its buffers on first use.
	for i := 0; i < 2*defaultSpanRing+8; i++ {
		infer()
	}
	n := testing.AllocsPerRun(200, infer)
	if form := edges[0].quant.Coded[0]; form != cut.form {
		t.Fatalf("at %s the payload went out in form %d, want %d", cut.layer, form, cut.form)
	}
	t.Logf("%v allocations per warm round trip at %s (through a gateway: %v, edge connections: %d)", n, cut.layer, fronted, clients)
	if n > ceiling {
		t.Fatalf("a warm round trip allocates %v times, ceiling %v", n, ceiling)
	}
	return n
}
