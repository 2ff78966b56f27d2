package splitrt

// The relay watch (state.go): how the end of an accepting connection reaches
// a backend call one of its requests is blocked in, now that the call
// registers no cancellation callback of its own.

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"shredder/internal/core"
	"shredder/internal/sched"
	"shredder/internal/tensor"
)

// TestRelayWatchDisarmReportsPoke pins the watch against what it replaces,
// the stop function of a context.AfterFunc: disarm reports false exactly when
// the connection was poked while armed, once per arming.
func TestRelayWatchDisarmReportsPoke(t *testing.T) {
	var pokes atomic.Int32
	conn := &frameConn{poke: func() { pokes.Add(1) }}
	var w relayWatch

	w.fire() // nothing armed: nothing to poke
	w.arm(conn)
	if !w.disarm() || pokes.Load() != 0 {
		t.Fatalf("an arming nobody fired reports a poke (%d landed)", pokes.Load())
	}
	w.arm(conn)
	w.fire()
	w.fire() // one poke per arming
	if w.disarm() || pokes.Load() != 1 {
		t.Fatalf("a watch fired while armed reports no poke (%d landed)", pokes.Load())
	}
	w.fire() // disarmed again
	w.arm(conn)
	if !w.disarm() || pokes.Load() != 1 {
		t.Fatalf("the poke of one arming shows on the next (%d landed)", pokes.Load())
	}
}

// stalledFleet is a gateway over one backend whose forward passes wait for
// release, and an edge client of the gateway. entered receives one value per
// forward pass that has begun waiting.
func stalledFleet(t *testing.T) (split *core.Split, pool *Pool, gw *Gateway, gwAddr string, entered <-chan struct{}, release func()) {
	t.Helper()
	began := make(chan struct{}, 16)
	gate := make(chan struct{})
	var stalling atomic.Bool
	stalling.Store(true)
	sp, _, addrs := fleetRig(t, 1, withFault(func(*tensor.Tensor) {
		if stalling.Load() {
			began <- struct{}{}
			<-gate
		}
	}))
	pool, err := NewPool(sp, "cut", nil, 1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	gw = NewGateway(pool)
	gwAddr, err = gw.Serve("127.0.0.1:0")
	if err != nil {
		pool.Close()
		t.Fatal(err)
	}
	release = func() {
		if stalling.CompareAndSwap(true, false) {
			close(gate)
		}
	}
	t.Cleanup(func() { release(); gw.Close(); pool.Close() })
	return sp, pool, gw, gwAddr, began, release
}

// TestRelayWatchFiredMidReadBreaksBackendConn: an edge that hangs up while
// its request waits on a backend takes the gateway's backend call with it —
// the call returns while the backend is still stalled — and the poke that did
// it leaves the pool's connection to that backend marked broken, exactly as
// the lost race of an AfterFunc's stop does: the next request redials.
func TestRelayWatchFiredMidReadBreaksBackendConn(t *testing.T) {
	split, pool, gw, gwAddr, entered, release := stalledFleet(t)
	edge, err := Dial(gwAddr, split, "cut", nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	x, want := poolInput(3)
	socket := edge.conn // the call below holds the client until it returns
	done := make(chan error, 1)
	go func() {
		_, err := edge.InferActivation(context.Background(), split.Local(x))
		done <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the request never reached the backend")
	}
	backend := pool.backends[0].client
	socket.Close() // the edge hangs up mid-request
	if err := <-done; err == nil {
		t.Fatal("a request whose connection was closed under it succeeded")
	}
	// The gateway gives the call up although the backend has not moved.
	deadline := time.Now().Add(5 * time.Second)
	for gw.failures.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the gateway is still waiting on the stalled backend after its edge hung up")
		}
		time.Sleep(time.Millisecond)
	}
	backend.mu.Lock()
	broken := backend.broken
	backend.mu.Unlock()
	if !broken {
		t.Fatal("the backend connection the watch poked is still trusted")
	}
	if n := pool.backends[0].errors.Value(); n != 0 {
		t.Fatalf("an abandoned call counted as %d backend errors", n)
	}

	release()
	next, err := Dial(gwAddr, split, "cut", nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	got, err := next.Infer(x)
	if err != nil {
		t.Fatalf("the request after an abandoned one: %v", err)
	}
	if !tensor.Equal(got, want) {
		t.Fatal("wrong logits after an abandoned request")
	}
	if n := backend.Stats().Redials; n != 1 {
		t.Fatalf("the pool's client redialed %d times, want once for the poked connection", n)
	}
}

// TestRelayWatchGatewayCloseWithStalledBackend: closing a gateway does not
// wait for a backend that has stopped answering — the requests in flight are
// abandoned with the connections they arrived on.
func TestRelayWatchGatewayCloseWithStalledBackend(t *testing.T) {
	split, _, gw, gwAddr, entered, _ := stalledFleet(t)
	edge, err := Dial(gwAddr, split, "cut", nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	x, _ := poolInput(1)
	done := make(chan error, 1)
	go func() {
		_, err := edge.InferActivation(context.Background(), split.Local(x))
		done <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the request never reached the backend")
	}
	closed := make(chan error, 1)
	go func() { closed <- gw.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Gateway.Close waits for a stalled backend")
	}
	if err := <-done; err == nil {
		t.Fatal("the request in flight when the gateway closed succeeded")
	}
}

// TestRelayWatchIdleExitStillAnswers: the one reader exit that abandons
// nothing. A pipelined connection whose reader idles out while a request is
// still being computed owes that request its answer before it closes.
func TestRelayWatchIdleExitStillAnswers(t *testing.T) {
	split, _, addr := identityRig(t,
		WithBatching(sched.Options{}), WithIdleTimeout(30*time.Millisecond),
		WithLatencyInjection(150*time.Millisecond))
	client, err := Dial(addr, split, "cut", nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	x, want := poolInput(4)
	got, err := client.Infer(x)
	if err != nil {
		t.Fatalf("a request that outlived the idle window was abandoned: %v", err)
	}
	if !tensor.Equal(got, want) {
		t.Fatal("wrong logits")
	}
}
