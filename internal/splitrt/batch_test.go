package splitrt

// Suite for cross-connection micro-batched serving: bitwise equivalence of
// batched vs per-sample serving at several MaxBatch/MaxDelay settings,
// randomized concurrent-submit stress (run under -race), context
// cancellation against a slow batch, pipelining several requests on one
// connection, typed wire-error kinds and their retry behaviour, and a
// goroutine-leak check around server Close with traffic in flight.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shredder/internal/core"
	"shredder/internal/nn"
	"shredder/internal/sched"
	"shredder/internal/tensor"
)

// TestBatchedServingBitwiseIdentical is the core equivalence guarantee:
// for every MaxBatch/MaxDelay combination, logits served through the
// batcher are bitwise equal (tensor.Equal, not AllClose) to per-sample
// serving and to the local full forward. Stacking is a pure copy and every
// layer treats batch members independently on the inference path, so any
// deviation here means the scheduler demultiplexed the wrong rows.
func TestBatchedServingBitwiseIdentical(t *testing.T) {
	split, pre, cutLayer, plainAddr := rig(t)
	for _, cfg := range []sched.Options{
		{MaxBatch: 1, MaxDelay: time.Millisecond},
		{MaxBatch: 3, MaxDelay: time.Millisecond},
		{MaxBatch: 16, MaxDelay: 5 * time.Millisecond},
	} {
		t.Run(fmt.Sprintf("maxbatch=%d", cfg.MaxBatch), func(t *testing.T) {
			srv := NewCloudServer(split, cutLayer, WithBatching(cfg))
			addr, err := srv.Serve("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			const clients = 4
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for w := 0; w < clients; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					batched, err := Dial(addr, split, cutLayer, nil, seed)
					if err != nil {
						errs <- err
						return
					}
					defer batched.Close()
					plain, err := Dial(plainAddr, split, cutLayer, nil, seed+100)
					if err != nil {
						errs <- err
						return
					}
					defer plain.Close()
					for i, b := range pre.Test.Batches(3 + int(seed)) {
						if i >= 3 {
							break
						}
						got, err := batched.Infer(b.Images)
						if err != nil {
							errs <- err
							return
						}
						want, err := plain.Infer(b.Images)
						if err != nil {
							errs <- err
							return
						}
						if !tensor.Equal(got, want) {
							errs <- fmt.Errorf("client %d batch %d: batched logits differ bitwise from per-sample serving", seed, i)
							return
						}
						if !tensor.Equal(got, split.Forward(b.Images)) {
							errs <- fmt.Errorf("client %d batch %d: batched logits differ bitwise from local forward", seed, i)
							return
						}
					}
				}(int64(w))
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if stats, ok := srv.BatchStats(); !ok || stats.Batches == 0 {
				t.Fatalf("batching server recorded no batches: %+v ok=%v", stats, ok)
			}
		})
	}
}

// TestBatchedConcurrentStress hammers a batching server from many
// connections with randomized batch sizes; every caller must get exactly
// the logits for its own samples. Under -race this also covers the
// scheduler/server interplay (pipelined handlers, shared batcher, write
// mutex).
func TestBatchedConcurrentStress(t *testing.T) {
	split, pre, cutLayer, _ := rig(t)
	srv := NewCloudServer(split, cutLayer, WithBatching(sched.Options{MaxBatch: 6, MaxDelay: time.Millisecond}))
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	all := pre.Test.Batches(1) // single-sample batches to slice from
	const clients = 8
	const reqs = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			client, err := Dial(addr, split, cutLayer, nil, seed)
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			for i := 0; i < reqs; i++ {
				// A random sample, as a batch of 1-3 copies of distinct
				// test images.
				n := 1 + rng.Intn(3)
				shape := append([]int{n}, all[0].Images.Shape()[1:]...)
				x := tensor.New(shape...)
				for j := 0; j < n; j++ {
					src := all[rng.Intn(len(all))].Images
					copy(x.Slice(j).Data(), src.Data())
				}
				got, err := client.Infer(x)
				if err != nil {
					errs <- fmt.Errorf("client %d req %d: %v", seed, i, err)
					return
				}
				if !tensor.Equal(got, split.Forward(x)) {
					errs <- fmt.Errorf("client %d req %d: wrong logits under batching — demux crossed callers", seed, i)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	stats, _ := srv.BatchStats()
	if stats.Batches == 0 || stats.Weight < stats.Batches {
		t.Fatalf("implausible batch stats: %+v", stats)
	}
	t.Logf("batch stats: %+v", stats)
}

// gateRig serves a tiny identity net (logits == activation for positive
// inputs) whose every forward pass blocks — a stand-in for a slow batch in
// flight — until openGate is called (idempotent; also invoked at cleanup so
// background flights never outlive the test).
func gateRig(t *testing.T, opts ...ServerOption) (split *core.Split, addr string, openGate func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	openGate = func() { once.Do(func() { close(gate) }) }
	seq := nn.NewSequential("gatenet", nn.NewReLU("cut"), nn.NewReLU("post"))
	split, err := core.NewSplit(seq, "cut", []int{1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewCloudServer(split, "cut", append(opts, withFault(func(*tensor.Tensor) { <-gate }))...)
	a, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { openGate(); srv.Close() })
	return split, a, openGate
}

// TestCancelMidBatchDoesNotWedgeClientOrServer starts a batch that blocks
// in flight, cancels a second caller stuck behind it, and checks the
// cancelled caller returns at its deadline while the server and the other
// caller finish normally once the gate opens.
func TestCancelMidBatchDoesNotWedgeClientOrServer(t *testing.T) {
	split, addr, openGate := gateRig(t, WithBatching(sched.Options{MaxBatch: 8, MaxDelay: time.Minute}))

	a, err := Dial(addr, split, "cut", nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	x := tensor.New(1, 1, 2, 2).Fill(2)

	first := make(chan error, 1)
	go func() {
		got, err := a.Infer(x)
		if err == nil && !tensor.Equal(got, x) {
			err = errors.New("identity net returned wrong logits")
		}
		first <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the first request occupy the flight

	b, err := Dial(addr, split, "cut", nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := b.InferContext(ctx, x); err == nil {
		t.Fatal("caller behind a blocked batch should fail at its deadline")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline did not bound the call: %v", elapsed)
	}

	openGate()
	select {
	case err := <-first:
		if err != nil {
			t.Fatalf("surviving caller failed after a peer cancelled: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("surviving caller never completed — cancellation poisoned the batch")
	}
}

// TestPipelinedRequestsOnOneConnection speaks the raw protocol: several
// requests are written back-to-back on a single connection before any
// response is read, and the (possibly out-of-order) responses are matched
// by ID. This is what the per-request IDs exist for.
func TestPipelinedRequestsOnOneConnection(t *testing.T) {
	_, addr, openGate := gateRig(t, WithBatching(sched.Options{MaxBatch: 4, MaxDelay: time.Millisecond}))
	openGate() // identity net, no blocking needed

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	peer := newTestPeer(conn)
	if ack, err := peer.hello(hello{Version: protoVersion, Network: "gatenet", CutLayer: "cut"}); err != nil || !ack.OK {
		t.Fatalf("handshake failed: %v %+v", err, ack)
	}

	const n = 6
	for id := uint64(1); id <= n; id++ {
		act := tensor.New(1, 1, 2, 2).Fill(float64(id))
		if err := peer.write(&request{ID: id, Activation: act}); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		resp, err := peer.readResponse()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Err != "" {
			t.Fatalf("request %d failed: %s", resp.ID, resp.Err)
		}
		if seen[resp.ID] {
			t.Fatalf("duplicate response for id %d", resp.ID)
		}
		seen[resp.ID] = true
		// Identity remote part: logits echo the activation, so the ID
		// must match the payload — the proof the demux didn't cross wires.
		want := tensor.New(1, 1, 2, 2).Fill(float64(resp.ID))
		if !tensor.Equal(resp.Logits, want) {
			t.Fatalf("response %d carries the wrong payload: %v", resp.ID, resp.Logits)
		}
	}
}

// TestBadRequestDoesNotPoisonBatch interleaves a malformed request with
// good ones on a batching server: the bad one gets ErrBadRequest, the good
// ones their logits, and the connection survives.
func TestBadRequestDoesNotPoisonBatch(t *testing.T) {
	split, addr, openGate := gateRig(t, WithBatching(sched.Options{MaxBatch: 4, MaxDelay: time.Millisecond}))
	openGate()
	client, err := Dial(addr, split, "cut", nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	peer := &testPeer{client.conn}
	if err := peer.write(&request{ID: 77, Activation: tensor.New(1, 3, 3)}); err != nil {
		t.Fatal(err)
	}
	resp, err := peer.readResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != ErrBadRequest || resp.Err == "" {
		t.Fatalf("malformed request not classified bad-request: %+v", resp)
	}
	x := tensor.New(1, 1, 2, 2).Fill(3)
	got, err := client.Infer(x)
	if err != nil {
		t.Fatalf("connection did not survive a bad request: %v", err)
	}
	if !tensor.Equal(got, x) {
		t.Fatal("wrong logits after a rejected request")
	}
}

// TestTypedErrorKinds checks the server classifies failures and the client
// exposes them as RemoteError with the right retryability.
func TestTypedErrorKinds(t *testing.T) {
	// Handler timeout → ErrTimeout, retryable.
	split, addr, _ := gateRig(t, WithHandlerTimeout(50*time.Millisecond),
		WithBatching(sched.Options{MaxBatch: 4, MaxDelay: time.Millisecond}))
	client, err := Dial(addr, split, "cut", nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	x := tensor.New(1, 1, 2, 2).Fill(1)
	_, err = client.Infer(x) // gate still closed: the batch stalls past the timeout
	var rerr *RemoteError
	if !errors.As(err, &rerr) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if rerr.Kind != ErrTimeout || !rerr.Retryable() {
		t.Fatalf("handler timeout misclassified: %+v", rerr)
	}

	// Bad shape → ErrBadRequest, not retryable.
	_, err = client.Infer(tensor.New(1, 9, 9).Reshape(1, 1, 9, 9).Fill(1))
	if !errors.As(err, &rerr) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if rerr.Kind != ErrBadRequest || rerr.Retryable() {
		t.Fatalf("shape mismatch misclassified: %+v", rerr)
	}
}

// fakeKindServer speaks the wire protocol and answers each request with a
// scripted response, counting requests — for testing the client's
// kind-based retry policy without a real network of failures.
func fakeKindServer(t *testing.T, script func(n int, req request) response) (addr string, count *int64, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				peer := newTestPeer(conn)
				if peer.accept() != nil {
					return
				}
				for {
					req, err := peer.readRequest()
					if err != nil {
						return
					}
					k := atomic.AddInt64(&n, 1)
					resp := script(int(k), req)
					if peer.write(&resp) != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), &n, func() { ln.Close() }
}

// TestClientRetriesOnlyRetryableKinds: a first-response timeout is retried
// and succeeds; a bad-request error is surfaced immediately without a
// second request.
func TestClientRetriesOnlyRetryableKinds(t *testing.T) {
	seq := nn.NewSequential("gatenet", nn.NewReLU("cut"), nn.NewReLU("post"))
	split, err := core.NewSplit(seq, "cut", []int{1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 1, 2, 2).Fill(1)

	addr, count, stop := fakeKindServer(t, func(n int, req request) response {
		if n == 1 {
			return response{ID: req.ID, Err: "inference exceeded handler timeout", Kind: ErrTimeout}
		}
		return response{ID: req.ID, Logits: req.Activation}
	})
	defer stop()
	client, err := Dial(addr, split, "cut", nil, 1, WithReconnect(2, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	got, err := client.Infer(x)
	if err != nil {
		t.Fatalf("retryable timeout was not retried: %v", err)
	}
	if !tensor.Equal(got, x) {
		t.Fatal("retried request returned wrong logits")
	}
	if c := atomic.LoadInt64(count); c != 2 {
		t.Fatalf("expected exactly 2 requests (1 failure + 1 retry), server saw %d", c)
	}

	addr2, count2, stop2 := fakeKindServer(t, func(n int, req request) response {
		return response{ID: req.ID, Err: "activation shape mismatch", Kind: ErrBadRequest}
	})
	defer stop2()
	client2, err := Dial(addr2, split, "cut", nil, 2, WithReconnect(3, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	if _, err := client2.Infer(x); err == nil {
		t.Fatal("bad-request error should surface to the caller")
	}
	if c := atomic.LoadInt64(count2); c != 1 {
		t.Fatalf("non-retryable kind was retried: server saw %d requests", c)
	}

	// A plain client (no WithReconnect) must not retry even retryable kinds.
	addr3, count3, stop3 := fakeKindServer(t, func(n int, req request) response {
		return response{ID: req.ID, Err: "inference exceeded handler timeout", Kind: ErrTimeout}
	})
	defer stop3()
	client3, err := Dial(addr3, split, "cut", nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer client3.Close()
	if _, err := client3.Infer(x); err == nil {
		t.Fatal("timeout should surface when retries are disabled")
	}
	if c := atomic.LoadInt64(count3); c != 1 {
		t.Fatalf("client without WithReconnect retried: server saw %d requests", c)
	}
}

// TestBatchedServerCloseDrainsWithoutLeaks closes a batching server while
// traffic is in flight: every outstanding request must resolve (logits, a
// typed shutdown error, or a transport error — never a hang), and the
// server-side goroutines must all exit. This is the regression test for
// the shutdown race where Close could strand batcher slots forever.
func TestBatchedServerCloseDrainsWithoutLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	seq := nn.NewSequential("gatenet", nn.NewReLU("cut"), nn.NewReLU("post"))
	split, err := core.NewSplit(seq, "cut", []int{1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewCloudServer(split, "cut", WithBatching(sched.Options{MaxBatch: 4, MaxDelay: time.Millisecond}))
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const clients = 6
	var wg sync.WaitGroup
	stopTraffic := make(chan struct{})
	x := tensor.New(1, 1, 2, 2).Fill(1)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			client, err := Dial(addr, split, "cut", nil, seed)
			if err != nil {
				return // server may already be closing
			}
			defer client.Close()
			for {
				select {
				case <-stopTraffic:
					return
				default:
				}
				got, err := client.Infer(x)
				if err != nil {
					// Acceptable outcomes during shutdown: typed shutdown
					// error or a transport failure. A wrong result is not.
					return
				}
				if !tensor.Equal(got, x) {
					t.Error("wrong logits during shutdown drain")
					return
				}
			}
		}(int64(w))
	}
	time.Sleep(50 * time.Millisecond) // let traffic build up
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	close(stopTraffic)
	wg.Wait()

	// All server goroutines (accept loop, conn handlers, request
	// handlers, batcher flights) must be gone.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("goroutines leaked after Close: before=%d now=%d\n%s",
		before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}
