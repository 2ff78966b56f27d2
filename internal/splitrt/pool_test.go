package splitrt

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"shredder/internal/core"
	"shredder/internal/nn"
	"shredder/internal/tensor"
)

// fleetRig serves n identity backends for the shared "obsnet" split and
// returns the split, the servers, and their addresses.
func fleetRig(t *testing.T, n int, opts ...ServerOption) (*core.Split, []*CloudServer, []string) {
	t.Helper()
	seq := nn.NewSequential("obsnet", nn.NewReLU("cut"), nn.NewReLU("post"))
	split, err := core.NewSplit(seq, "cut", []int{1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*CloudServer, n)
	addrs := make([]string, n)
	for i := range servers {
		srv := NewCloudServer(split, "cut", opts...)
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		servers[i], addrs[i] = srv, addr
	}
	return split, servers, addrs
}

// poolInput builds a deterministic batch whose expected logits the identity
// rig computes locally.
func poolInput(seed int) (*tensor.Tensor, *tensor.Tensor) {
	x := tensor.New(1, 1, 2, 2)
	for i := range x.Data() {
		v := float64((seed+i)%7) - 3 // mixes negatives through the ReLUs
		x.Data()[i] = v
	}
	want := tensor.New(1, 1, 2, 2)
	for i, v := range x.Data() {
		if v > 0 {
			want.Data()[i] = v
		}
	}
	return x, want
}

// waitGoroutines polls until the goroutine count returns to the baseline
// (+2 slack, matching the suite's other leak checks).
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("goroutines leaked: before=%d now=%d\n%s",
		before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}

// TestPoolMatchesSingleBackendReference checks fleet routing is invisible
// to correctness: logits served through a 3-backend pool are bitwise equal
// to the local forward pass, for every balancer policy.
func TestPoolMatchesSingleBackendReference(t *testing.T) {
	split, _, addrs := fleetRig(t, 3)
	for _, policy := range []string{"roundrobin", "least-inflight", "consistent"} {
		bal, err := BalancerByName(policy)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := NewPool(split, "cut", nil, 11, addrs, WithBalancer(bal))
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		for i := 0; i < 9; i++ {
			x, want := poolInput(i)
			got, err := pool.Infer(x)
			if err != nil {
				t.Fatalf("%s: infer %d: %v", policy, i, err)
			}
			if !tensor.Equal(got, want) {
				t.Fatalf("%s: infer %d: got %v want %v", policy, i, got.Data(), want.Data())
			}
		}
		st := pool.Stats()
		if st.Requests != 9 {
			t.Fatalf("%s: requests = %d, want 9", policy, st.Requests)
		}
		pool.Close()
	}
}

// TestPoolKillBackendMidLoad is the kill-a-backend e2e: three backends,
// one killed while concurrent traffic is in flight. Every call must
// complete bitwise-correct via another backend — the shutdown kind and the
// broken transport are both absorbed by rerouting — with no hangs and no
// leaked goroutines, and the dead backend must leave rotation.
func TestPoolKillBackendMidLoad(t *testing.T) {
	split, servers, addrs := fleetRig(t, 3)
	before := runtime.NumGoroutine() // baseline after the rig: its accept loops outlive the pool
	pool, err := NewPool(split, "cut", nil, 13, addrs,
		WithHealthInterval(time.Hour), // keep the victim from being readmitted mid-test
		WithEjectAfter(1))
	if err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				if w == 0 && i == perWorker/4 {
					// The kill, with seven workers mid-traffic and three
					// quarters of this one's calls still to come.
					servers[1].Close()
				}
				x, want := poolInput(w*perWorker + i)
				got, err := pool.Infer(x)
				if err != nil {
					errs <- err
					continue
				}
				if !tensor.Equal(got, want) {
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

	st := pool.Stats()
	for _, b := range st.Backends {
		if b.Addr == addrs[1] && b.State == BackendHealthy.String() {
			t.Errorf("killed backend still in rotation: %+v", b)
		}
	}
	pool.Close()
	waitGoroutines(t, before)
}

// TestPoolHedgeCapsSlowBackend checks the hedging path end to end: with
// one backend artificially slow, the budget derived from the fast
// backend's live histogram fires duplicates, the duplicates win, the
// cancelled losers do not count as backend failures, and the slow backend
// stays in rotation.
func TestPoolHedgeCapsSlowBackend(t *testing.T) {
	seq := nn.NewSequential("obsnet", nn.NewReLU("cut"), nn.NewReLU("post"))
	split, err := core.NewSplit(seq, "cut", []int{1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	fast := NewCloudServer(split, "cut")
	fastAddr, err := fast.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fast.Close() })
	slow := NewCloudServer(split, "cut", WithLatencyInjection(60*time.Millisecond))
	slowAddr, err := slow.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { slow.Close() })

	pool, err := NewPool(split, "cut", nil, 17, []string{fastAddr, slowAddr},
		WithHedging(0.9, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Warm the fast backend's histogram past the 16-observation threshold;
	// round-robin alternates, so 40 calls put ~20 on each.
	for i := 0; i < 40; i++ {
		x, want := poolInput(i)
		got, err := pool.Infer(x)
		if err != nil {
			t.Fatalf("warmup %d: %v", i, err)
		}
		if !tensor.Equal(got, want) {
			t.Fatalf("warmup %d: wrong logits", i)
		}
	}

	// Hedged phase: every call landing on the slow backend should fire a
	// duplicate at the fast one well before the 60ms injected latency.
	hedgedStart := pool.Stats()
	var worst time.Duration
	for i := 0; i < 20; i++ {
		x, want := poolInput(100 + i)
		t0 := time.Now()
		got, err := pool.Infer(x)
		if d := time.Since(t0); d > worst {
			worst = d
		}
		if err != nil {
			t.Fatalf("hedged call %d: %v", i, err)
		}
		if !tensor.Equal(got, want) {
			t.Fatalf("hedged call %d: wrong logits", i)
		}
	}
	st := pool.Stats()
	if st.Hedges == hedgedStart.Hedges {
		t.Fatal("no hedges fired against a 60ms backend")
	}
	if st.HedgeWins == hedgedStart.HedgeWins {
		t.Fatal("no hedge ever won against a 60ms backend")
	}
	for _, b := range st.Backends {
		if b.Addr == slowAddr {
			if b.State != BackendHealthy.String() {
				t.Fatalf("slow-but-correct backend left rotation: %+v", b)
			}
			if b.Errors != 0 {
				t.Fatalf("cancelled hedge losers counted as backend errors: %+v", b)
			}
		}
	}
}

// TestPoolDrainUnderLoad drains one backend while traffic is in flight:
// no call may fail or hang, the drained backend disappears from the pool,
// and no goroutine leaks.
func TestPoolDrainUnderLoad(t *testing.T) {
	split, _, addrs := fleetRig(t, 3)
	before := runtime.NumGoroutine() // baseline after the rig: its accept loops outlive the pool
	pool, err := NewPool(split, "cut", nil, 19, addrs)
	if err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 6, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				x, want := poolInput(w + i)
				got, err := pool.Infer(x)
				if err != nil {
					errs <- err
					continue
				}
				if !tensor.Equal(got, want) {
					errs <- errors.New("wrong logits during drain")
				}
			}
		}(w)
	}
	time.Sleep(2 * time.Millisecond)
	if err := pool.Drain(addrs[0]); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("call failed during drain: %v", err)
	}

	st := pool.Stats()
	if len(st.Backends) != 2 {
		t.Fatalf("drained backend still listed: %+v", st.Backends)
	}
	for _, b := range st.Backends {
		if b.Addr == addrs[0] {
			t.Fatalf("drained backend still listed: %+v", b)
		}
	}
	if err := pool.Drain(addrs[0]); err == nil {
		t.Fatal("double drain of the same backend must error")
	}
	pool.Close()
	waitGoroutines(t, before)
}

// TestPoolHealthLoopReadmits ejects a backend by killing its server, then
// brings a server back on the same address and checks the health loop
// walks it through half-open back to healthy.
func TestPoolHealthLoopReadmits(t *testing.T) {
	split, servers, addrs := fleetRig(t, 2)
	pool, err := NewPool(split, "cut", nil, 23, addrs,
		WithEjectAfter(1), WithHealthInterval(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	servers[0].Close()
	// Drive traffic until the dead backend is ejected (its turn in the
	// rotation fails and reroutes).
	deadline := time.Now().Add(5 * time.Second)
	for {
		x, _ := poolInput(1)
		if _, err := pool.Infer(x); err != nil {
			t.Fatalf("infer while backend down: %v", err)
		}
		ejected := false
		for _, b := range pool.Stats().Backends {
			if b.Addr == addrs[0] && b.State == BackendEjected.String() {
				ejected = true
			}
		}
		if ejected {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend never ejected: %+v", pool.Stats().Backends)
		}
	}

	// Resurrect the backend on its old address.
	srv := NewCloudServer(split, "cut")
	if _, err := srv.Serve(addrs[0]); err != nil {
		t.Fatalf("rebind %s: %v", addrs[0], err)
	}
	t.Cleanup(func() { srv.Close() })

	// The health loop should redial it into half-open, and traffic should
	// then readmit it to healthy.
	deadline = time.Now().Add(5 * time.Second)
	for {
		x, want := poolInput(2)
		got, err := pool.Infer(x)
		if err != nil {
			t.Fatalf("infer during readmission: %v", err)
		}
		if !tensor.Equal(got, want) {
			t.Fatal("wrong logits during readmission")
		}
		healthy := false
		for _, b := range pool.Stats().Backends {
			if b.Addr == addrs[0] && b.State == BackendHealthy.String() {
				healthy = true
			}
		}
		if healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend never readmitted: %+v", pool.Stats().Backends)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if pool.Stats().Readmits == 0 {
		t.Fatal("readmission not counted")
	}
}

// TestPoolClosedAndExhausted pins the terminal error surfaces: a closed
// pool refuses with ErrPoolClosed, and a pool whose every backend is gone
// reports ErrNoBackends once the eject threshold is crossed.
func TestPoolClosedAndExhausted(t *testing.T) {
	split, servers, addrs := fleetRig(t, 2)
	pool, err := NewPool(split, "cut", nil, 29, addrs,
		WithEjectAfter(1), WithHealthInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range servers {
		s.Close()
	}
	x, _ := poolInput(3)
	_, err = pool.Infer(x)
	if err == nil || !errors.Is(err, ErrNoBackends) {
		t.Fatalf("want ErrNoBackends with every backend dead, got %v", err)
	}
	pool.Close()
	if _, err := pool.Infer(x); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("want ErrPoolClosed after Close, got %v", err)
	}
	if err := pool.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestPoolAppliesNoise checks the pool's privacy boundary: with a noise
// collection attached, what the pool sends is not the raw activation (the
// logits differ from the clean forward pass by the injected noise).
func TestPoolAppliesNoise(t *testing.T) {
	split, _, addrs := fleetRig(t, 2)
	noise := tensor.New(1, 2, 2)
	for i := range noise.Data() {
		noise.Data()[i] = 100 // unmissable offset
	}
	col := &core.Collection{Shape: []int{1, 2, 2}, Members: []*tensor.Tensor{noise}, InVivo: []float64{0}}
	pool, err := NewPool(split, "cut", col, 31, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	x, clean := poolInput(5)
	got, err := pool.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.Equal(got, clean) {
		t.Fatal("pool served clean logits despite a noise collection")
	}
}

// TestBalancerPolicies unit-tests the picking rules without a live fleet.
func TestBalancerPolicies(t *testing.T) {
	cands := []BackendView{{Addr: "a:1"}, {Addr: "b:1"}, {Addr: "c:1"}}

	rr := NewRoundRobin()
	seen := map[int]int{}
	for i := 0; i < 9; i++ {
		seen[rr.Pick("k", cands)]++
	}
	for i := 0; i < 3; i++ {
		if seen[i] != 3 {
			t.Fatalf("round-robin uneven: %v", seen)
		}
	}

	li := NewLeastInflight()
	loaded := []BackendView{{Addr: "a:1", Inflight: 5}, {Addr: "b:1", Inflight: 0}, {Addr: "c:1", Inflight: 2}}
	for i := 0; i < 5; i++ {
		if got := li.Pick("k", loaded); got != 1 {
			t.Fatalf("least-inflight picked %d, want 1", got)
		}
	}

	cons := NewConsistent()
	first := cons.Pick("net/cut", cands)
	for i := 0; i < 10; i++ {
		if got := cons.Pick("net/cut", cands); got != first {
			t.Fatal("consistent balancer is not consistent")
		}
	}
	// Removing a non-winner must not move the choice for this key.
	reduced := make([]BackendView, 0, 2)
	removed := (first + 1) % 3
	for i, c := range cands {
		if i != removed {
			reduced = append(reduced, c)
		}
	}
	winner := cands[first].Addr
	if got := cons.Pick("net/cut", reduced); reduced[got].Addr != winner {
		t.Fatalf("consistent choice moved when an unrelated backend left: %s -> %s",
			winner, reduced[got].Addr)
	}

	if _, err := BalancerByName("bogus"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown balancer name must error, got %v", err)
	}
}

// TestGatewayEndToEnd serves a pool behind a Gateway and talks to it with
// a stock EdgeClient: the protocol must be indistinguishable from a single
// CloudServer, wrong-model handshakes must be refused, and the merged
// debug endpoint must carry both gateway and pool series.
func TestGatewayEndToEnd(t *testing.T) {
	split, _, addrs := fleetRig(t, 2)
	before := runtime.NumGoroutine() // baseline after the rig: its accept loops outlive the pool
	pool, err := NewPool(split, "cut", nil, 37, addrs)
	if err != nil {
		t.Fatal(err)
	}
	gw := NewGateway(pool, WithDebugServer("127.0.0.1:0"))
	gwAddr, err := gw.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	client, err := Dial(gwAddr, split, "cut", nil, 41)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		x, want := poolInput(i)
		got, err := client.Infer(x)
		if err != nil {
			t.Fatalf("infer via gateway: %v", err)
		}
		if !tensor.Equal(got, want) {
			t.Fatalf("gateway altered logits: got %v want %v", got.Data(), want.Data())
		}
	}
	client.Close()

	// Wrong-model handshake is refused with the same shape of error a
	// CloudServer produces.
	other := nn.NewSequential("othernet", nn.NewReLU("cut"), nn.NewReLU("post"))
	otherSplit, err := core.NewSplit(other, "cut", []int{1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(gwAddr, otherSplit, "cut", nil, 43); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("gateway accepted a mismatched model: %v", err)
	}

	if gw.reg.Counter("gateway.requests").Value() < 10 {
		t.Fatalf("gateway requests not counted: %d", gw.reg.Counter("gateway.requests").Value())
	}
	if gw.DebugAddr() == "" {
		t.Fatal("gateway debug endpoint not serving")
	}

	gw.Close()
	pool.Close()
	waitGoroutines(t, before)
}

// TestGatewayMapsPoolShutdown checks fleet-level exhaustion surfaces to
// edge clients as the retryable shutdown kind, so their reconnect logic
// treats the gateway like any restarting server.
func TestGatewayMapsPoolShutdown(t *testing.T) {
	split, _, addrs := fleetRig(t, 1)
	pool, err := NewPool(split, "cut", nil, 47, addrs)
	if err != nil {
		t.Fatal(err)
	}
	gw := NewGateway(pool)
	gwAddr, err := gw.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	client, err := Dial(gwAddr, split, "cut", nil, 53)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	pool.Close()

	x, _ := poolInput(0)
	_, err = client.InferContext(context.Background(), x)
	var rerr *RemoteError
	if !errors.As(err, &rerr) {
		t.Fatalf("want a typed remote error, got %v", err)
	}
	if rerr.Kind != ErrShutdown || !rerr.Retryable() {
		t.Fatalf("pool shutdown must map to the retryable shutdown kind, got %+v", rerr)
	}
}
