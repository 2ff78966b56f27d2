package splitrt

// Concurrency and robustness suite for the split-inference runtime: many
// goroutine clients hammering one server (run under -race), panic
// containment, stalled-peer deadlines, client-side call timeouts, and
// reconnect-with-backoff. These are the behaviours a cloud server needs to
// survive real traffic rather than a single well-behaved loopback client.

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"shredder/internal/core"
	"shredder/internal/nn"
	"shredder/internal/quantize"
	"shredder/internal/tensor"
)

// TestConcurrentClientsHammerServer runs 8 clients × 6 requests in
// parallel against one server and checks every response against the local
// baseline. Under -race this also proves the remote forward path is
// reentrant: the seed implementation (layer caches + global lock removed)
// would either race or serialize.
func TestConcurrentClientsHammerServer(t *testing.T) {
	split, pre, cutLayer, addr := rig(t)
	b := pre.Test.Batches(4)[0]
	want := split.Forward(b.Images)

	const clients = 8
	const reqs = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			client, err := Dial(addr, split, cutLayer, nil, seed)
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			for i := 0; i < reqs; i++ {
				got, err := client.Infer(b.Images)
				if err != nil {
					errs <- err
					return
				}
				if !tensor.AllClose(got, want, 1e-9) {
					errs <- fmt.Errorf("client %d request %d: logits diverged under concurrency", seed, i)
					return
				}
			}
			if s := client.Stats(); s.Requests != reqs {
				errs <- fmt.Errorf("client %d counted %d requests, sent %d", seed, s.Requests, reqs)
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// withFault installs fn as the server's forward-pass fault: it runs before
// every forward pass, inside the panic/timeout guard, where a slow or
// crashing forward pass would.
func withFault(fn func(act *tensor.Tensor)) ServerOption {
	return serverOption(func(s *CloudServer) { s.fault = fn })
}

const trapValue = 666.0

// trapFault panics when the magic value appears in the activation — a
// stand-in for any malformed payload that slips past shape validation and
// blows up mid-forward.
func trapFault(act *tensor.Tensor) {
	for _, v := range act.Data() {
		if v == trapValue {
			panic("trapFault: boobytrapped activation")
		}
	}
}

// trapRig serves a tiny net whose remote part panics on the magic value.
func trapRig(t *testing.T, opts ...ServerOption) (*core.Split, string, string) {
	t.Helper()
	net := nn.NewSequential("trapnet", nn.NewReLU("cut"), nn.NewReLU("post"))
	split, err := core.NewSplit(net, "cut", []int{1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewCloudServer(split, "cut", append(opts, withFault(trapFault))...)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return split, "cut", addr
}

// TestPanicDoesNotWedgeServer is the regression test for the seed's
// deadliest bug: a panic inside the remote forward fired recover with the
// inference mutex still held, deadlocking the server forever. Now a
// panic-inducing request must produce an error response on its own
// connection AND leave every other connection fully served.
func TestPanicDoesNotWedgeServer(t *testing.T) {
	split, cutLayer, addr := trapRig(t)

	evil, err := Dial(addr, split, cutLayer, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer evil.Close()
	bomb := tensor.New(1, 1, 2, 2).Fill(trapValue)
	if _, err := evil.Infer(bomb); err == nil {
		t.Fatal("panic-inducing request should return a remote error")
	} else if !strings.Contains(err.Error(), "remote inference failed") {
		t.Fatalf("unexpected error: %v", err)
	}

	// The same connection must survive its own panic...
	benign := tensor.New(1, 1, 2, 2).Fill(1)
	if _, err := evil.Infer(benign); err != nil {
		t.Fatalf("connection did not survive its own panic: %v", err)
	}
	// ...and a fresh connection must get service (the seed deadlocked here).
	done := make(chan error, 1)
	go func() {
		good, err := Dial(addr, split, cutLayer, nil, 2)
		if err != nil {
			done <- err
			return
		}
		defer good.Close()
		_, err = good.Infer(benign)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("second connection failed after panic: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server wedged: second connection made no progress after a panic")
	}
}

// TestIdleTimeoutDropsStalledConnWithoutCollateral stalls one connection
// mid-protocol and checks that (a) the server reaps it at the idle
// deadline and (b) a healthy connection is served the whole time.
func TestIdleTimeoutDropsStalledConnWithoutCollateral(t *testing.T) {
	split, cutLayer, addr := trapRig(t, WithIdleTimeout(300*time.Millisecond))

	// Stalled peer: completes the handshake, then goes silent.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if ack, err := newTestPeer(raw).hello(hello{Version: protoVersion, Network: "trapnet", CutLayer: cutLayer}); err != nil || !ack.OK {
		t.Fatalf("handshake failed: %v %+v", err, ack)
	}

	// Healthy client keeps getting service while the other conn is stalled.
	good, err := Dial(addr, split, cutLayer, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	benign := tensor.New(1, 1, 2, 2).Fill(1)
	for i := 0; i < 3; i++ {
		if _, err := good.Infer(benign); err != nil {
			t.Fatalf("healthy connection starved by a stalled peer: %v", err)
		}
	}

	// The stalled conn must be closed by the server within the idle window.
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("expected server to close the stalled connection")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server never reaped the stalled connection")
	}
}

// stallingServer handshakes like a real server and then swallows requests
// without ever responding — the pathological cloud a client deadline must
// defend against.
func stallingServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
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
					// Swallow the request; never answer.
					if _, err := peer.readRequest(); err != nil {
						break
					}
				}
				<-done
			}(conn)
		}
	}()
	return ln.Addr().String(), func() { ln.Close(); close(done) }
}

// TestInferContextDeadline proves a stalled cloud cannot hang the edge:
// both a context deadline and a configured client timeout unblock Infer.
func TestInferContextDeadline(t *testing.T) {
	seq := nn.NewSequential("trapnet", nn.NewReLU("cut"), nn.NewReLU("post"))
	split, err := core.NewSplit(seq, "cut", []int{1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := stallingServer(t)
	defer stop()

	client, err := Dial(addr, split, "cut", nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	x := tensor.New(1, 1, 2, 2).Fill(1)

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := client.InferContext(ctx, x); err == nil {
		t.Fatal("Infer against a stalled server should fail at the deadline")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline did not bound the call: took %v", elapsed)
	}

	// Configured default timeout, no context deadline.
	client2, err := Dial(addr, split, "cut", nil, 2, WithTimeout(300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	start = time.Now()
	if _, err := client2.Infer(x); err == nil {
		t.Fatal("Infer should time out via the configured client timeout")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("client timeout did not bound the call: took %v", elapsed)
	}
}

// TestReconnectAfterBrokenConnection kills the client's TCP connection out
// from under it and checks that a reconnect-enabled client transparently
// redials, re-handshakes, and completes the request, while a plain client
// surfaces the transport error.
func TestReconnectAfterBrokenConnection(t *testing.T) {
	split, cutLayer, addr := trapRig(t)
	benign := tensor.New(1, 1, 2, 2).Fill(1)

	plain, err := Dial(addr, split, cutLayer, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	plain.conn.Close()
	if _, err := plain.Infer(benign); err == nil {
		t.Fatal("plain client should surface the broken connection")
	}

	rc, err := Dial(addr, split, cutLayer, nil, 2, WithReconnect(3, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.Infer(benign); err != nil {
		t.Fatal(err)
	}
	rc.conn.Close() // sever the transport mid-session
	if _, err := rc.Infer(benign); err != nil {
		t.Fatalf("reconnect-enabled client failed to recover: %v", err)
	}
	if s := rc.Stats(); s.Redials < 1 {
		t.Fatalf("expected at least one redial, stats: %+v", s)
	}
}

// TestPackedQuantizedWireMatchesWireBytes asserts the bytes that actually
// cross the wire under quantized transport are bounded by the bit-packed
// payload Scheme.WireBytes promises — coded, the payload is at most one byte
// longer — not 2 bytes per uint16 level.
func TestPackedQuantizedWireMatchesWireBytes(t *testing.T) {
	split, pre, cutLayer, addr := rig(t)
	client, err := Dial(addr, split, cutLayer, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const bits = 6
	if err := client.SetWireQuantization(bits); err != nil {
		t.Fatal(err)
	}
	b := pre.Test.Batches(16)[0]
	if _, err := client.Infer(b.Images); err != nil {
		t.Fatal(err)
	}
	scheme, _ := quantize.NewScheme(bits, 0, 1)
	vals := 16 * tensor.Volume(split.ActivationShape())
	payload := scheme.WireBytes(vals)
	// Everything beyond the payload is protocol overhead: the hello frame
	// and one request header with the scheme and shape in it. A few hundred
	// bytes, whatever the payload.
	if sent := client.Stats().BytesSent; sent > payload+1+256 {
		t.Fatalf("wire traffic %d far exceeds WireBytes %d: levels are not packed", sent, payload)
	}
}

// TestCloseIsConcurrentlyIdempotent closes a server (with a live client
// connection) from several goroutines at once; every call must return nil
// and none may deadlock (-race guards the conn registry).
func TestCloseIsConcurrentlyIdempotent(t *testing.T) {
	seq := nn.NewSequential("trapnet", nn.NewReLU("cut"), nn.NewReLU("post"))
	split, err := core.NewSplit(seq, "cut", []int{1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewCloudServer(split, "cut")
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(addr, split, "cut", nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.Close(); err != nil {
				t.Errorf("concurrent Close returned %v", err)
			}
		}()
	}
	wg.Wait()
}
