package splitrt

// Suite for the observability layer at the wire: trace IDs echoed through
// the protocol, per-error-kind counters on both ends of a failing request, race-free
// Stats polling during traffic and forced redials, an end-to-end pass over
// the live debug HTTP endpoint, and server-side per-layer profiling behind
// WithProfiling.

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"shredder/internal/core"
	"shredder/internal/nn"
	"shredder/internal/obs"
	"shredder/internal/sched"
	"shredder/internal/tensor"
)

// identityRig serves a tiny identity net (logits == activation for
// positive inputs) and returns the server so tests can reach its debug
// endpoint and registry.
func identityRig(t *testing.T, opts ...ServerOption) (*core.Split, *CloudServer, string) {
	t.Helper()
	seq := nn.NewSequential("obsnet", nn.NewReLU("cut"), nn.NewReLU("post"))
	split, err := core.NewSplit(seq, "cut", []int{1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewCloudServer(split, "cut", opts...)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return split, srv, addr
}

// TestTraceIDEchoedOnWire speaks raw frames to a real server and checks the
// request's trace ID comes back verbatim on the response.
func TestTraceIDEchoedOnWire(t *testing.T) {
	_, _, addr := identityRig(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	peer := newTestPeer(conn)
	if ack, err := peer.hello(hello{Version: protoVersion, Network: "obsnet", CutLayer: "cut"}); err != nil || !ack.OK {
		t.Fatalf("handshake failed: %v %+v", err, ack)
	}
	const trace = 0xdeadbeefcafe
	if err := peer.write(&request{ID: 5, Trace: trace, Activation: tensor.New(1, 1, 2, 2).Fill(1)}); err != nil {
		t.Fatal(err)
	}
	resp, err := peer.readResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 5 || resp.Trace != trace {
		t.Fatalf("trace not echoed: got id=%d trace=%#x, want id=5 trace=%#x", resp.ID, resp.Trace, uint64(trace))
	}
	if resp.Err != "" || resp.Logits == nil {
		t.Fatalf("traced request failed: %+v", resp)
	}
}

// TestClientErrorKindCounters scripts one failure of every wire kind and
// checks exactly the matching client.errors.<kind> counter increments.
func TestClientErrorKindCounters(t *testing.T) {
	seq := nn.NewSequential("obsnet", nn.NewReLU("cut"), nn.NewReLU("post"))
	split, err := core.NewSplit(seq, "cut", []int{1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 1, 2, 2).Fill(1)
	kinds := []ErrKind{ErrUnknown, ErrBadRequest, ErrTimeout, ErrShutdown, ErrInternal}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			addr, _, stop := fakeKindServer(t, func(n int, req request) response {
				return response{ID: req.ID, Err: "scripted failure", Kind: kind}
			})
			defer stop()
			reg := obs.NewRegistry()
			// No WithReconnect: even retryable kinds surface after one try,
			// so each counter sees exactly one increment.
			client, err := Dial(addr, split, "cut", nil, 1, WithMetrics(reg))
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			var rerr *RemoteError
			if _, err := client.Infer(x); !errors.As(err, &rerr) || rerr.Kind != kind {
				t.Fatalf("want RemoteError kind %s, got %v", kind, err)
			}
			snap := reg.Snapshot()
			for _, k := range kinds {
				want := int64(0)
				if k == kind {
					want = 1
				}
				if got := snap.Counters["client.errors."+k.String()]; got != want {
					t.Fatalf("client.errors.%s = %d, want %d (snapshot %+v)", k, got, want, snap.Counters)
				}
			}
			if snap.Counters["client.requests"] != 1 || snap.Counters["client.errors.transport"] != 0 {
				t.Fatalf("unexpected request/transport counters: %+v", snap.Counters)
			}
		})
	}
}

// TestServerErrorKindCounters drives one failure of each kind through a
// real server with observability attached and checks the server-side
// counters: bad-request and internal via a trap server, timeout via a
// gated server, shutdown via a closed batcher.
func TestServerErrorKindCounters(t *testing.T) {
	reg := obs.NewRegistry()
	split, cutLayer, addr := trapRig(t, WithObservability(reg, nil))
	client, err := Dial(addr, split, cutLayer, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Infer(tensor.New(1, 1, 2, 2).Fill(1)); err != nil {
		t.Fatalf("benign request failed: %v", err)
	}
	if _, err := client.Infer(tensor.New(1, 1, 3, 3).Fill(1)); err == nil {
		t.Fatal("bad shape accepted")
	}
	if _, err := client.Infer(tensor.New(1, 1, 2, 2).Fill(trapValue)); err == nil {
		t.Fatal("trap value did not fail")
	}
	snap := reg.Snapshot()
	if snap.Counters["server.requests"] != 3 || snap.Counters["server.responses.ok"] != 1 {
		t.Fatalf("request/ok counters: %+v", snap.Counters)
	}
	if snap.Counters["server.errors.bad-request"] != 1 || snap.Counters["server.errors.internal"] != 1 {
		t.Fatalf("error-kind counters: %+v", snap.Counters)
	}
	if h := snap.Histograms["server.latency_seconds"]; h.Count != 3 {
		t.Fatalf("latency histogram saw %d requests, want 3", h.Count)
	}

	regT := obs.NewRegistry()
	gSplit, gAddr, openGate := gateRig(t, WithHandlerTimeout(30*time.Millisecond), WithObservability(regT, nil))
	gClient, err := Dial(gAddr, gSplit, "cut", nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer gClient.Close()
	var rerr *RemoteError
	if _, err := gClient.Infer(tensor.New(1, 1, 2, 2).Fill(1)); !errors.As(err, &rerr) || rerr.Kind != ErrTimeout {
		t.Fatalf("want timeout, got %v", err)
	}
	openGate()
	if got := regT.Snapshot().Counters["server.errors.timeout"]; got != 1 {
		t.Fatalf("server.errors.timeout = %d, want 1", got)
	}

	regS := obs.NewRegistry()
	seq := nn.NewSequential("obsnet", nn.NewReLU("cut"), nn.NewReLU("post"))
	sSplit, err := core.NewSplit(seq, "cut", []int{1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewCloudServer(sSplit, "cut",
		WithBatching(sched.Options{MaxBatch: 2, MaxDelay: time.Millisecond}),
		WithObservability(regS, nil))
	srv.Close() // batcher now refuses submissions with the shutdown kind
	st := srv.states.take()
	st.req = request{ID: 1, Activation: tensor.New(1, 1, 2, 2).Fill(1)}
	srv.handle(context.Background(), st)
	if resp := st.resp; resp.Kind != ErrShutdown {
		t.Fatalf("closed batcher answered kind %s: %+v", resp.Kind, resp)
	}
	if got := regS.Snapshot().Counters["server.errors.shutdown"]; got != 1 {
		t.Fatalf("server.errors.shutdown = %d, want 1", got)
	}
}

// TestStatsPollingDuringTrafficAndRedials is the regression test for the
// documented Stats read race: a poller hammers Stats while several
// goroutines run InferContext and the transport is severed repeatedly to
// force redials. Run under -race this fails loudly if any Stats field ever
// shares a non-atomic word with the hot path.
func TestStatsPollingDuringTrafficAndRedials(t *testing.T) {
	split, _, addr := identityRig(t)
	client, err := Dial(addr, split, "cut", nil, 1, WithReconnect(5, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	x := tensor.New(1, 1, 2, 2).Fill(1)

	done := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = client.Stats()
			}
		}
	}()

	severConn := func() {
		client.mu.Lock()
		if client.conn != nil {
			client.conn.Close()
		}
		client.mu.Unlock()
	}
	var severWG sync.WaitGroup
	severWG.Add(1)
	go func() {
		defer severWG.Done()
		for i := 0; i < 10; i++ {
			select {
			case <-done:
				return
			case <-time.After(500 * time.Microsecond):
				severConn()
			}
		}
	}()

	const workers, per = 3, 20
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := client.Infer(x); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(done)
	pollWG.Wait()
	severWG.Wait()
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	// Deterministic redial: sever between calls, then one more request must
	// transparently reconnect and count it.
	severConn()
	if _, err := client.Infer(x); err != nil {
		t.Fatalf("post-sever request failed: %v", err)
	}
	s := client.Stats()
	if s.Requests != workers*per+1 {
		t.Fatalf("Stats.Requests = %d, want %d", s.Requests, workers*per+1)
	}
	if s.Redials < 1 || s.BytesSent == 0 || s.BytesReceived == 0 {
		t.Fatalf("stats missed traffic: %+v", s)
	}
}

// TestDebugEndpointEndToEnd serves a batching server with a live debug
// endpoint, pushes traced traffic (and one failure) through a real client,
// and checks /debug/metrics carries latency quantiles, batch occupancy and
// per-error-kind counters, and /debug/spans a traced request with
// queue/batch/compute sub-timings.
func TestDebugEndpointEndToEnd(t *testing.T) {
	split, srv, addr := identityRig(t,
		WithBatching(sched.Options{MaxBatch: 4, MaxDelay: time.Millisecond}),
		WithDebugServer("127.0.0.1:0"))
	dbg := srv.DebugAddr()
	if dbg == "" {
		t.Fatal("debug endpoint not started by Serve")
	}
	if srv.Metrics() == nil || srv.obs.spans == nil {
		t.Fatal("WithDebugServer should imply observability")
	}

	client, err := Dial(addr, split, "cut", nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	x := tensor.New(1, 1, 2, 2).Fill(1)
	for i := 0; i < 5; i++ {
		if _, err := client.Infer(x); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Infer(tensor.New(1, 1, 3, 3).Fill(1)); err == nil {
		t.Fatal("bad shape accepted")
	}

	get := func(path string, v any) {
		t.Helper()
		resp, err := http.Get("http://" + dbg + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}

	var snap obs.Snapshot
	get("/debug/metrics", &snap)
	if snap.Counters["server.requests"] != 6 || snap.Counters["server.responses.ok"] != 5 {
		t.Fatalf("request counters: %+v", snap.Counters)
	}
	if snap.Counters["server.errors.bad-request"] != 1 {
		t.Fatalf("bad-request counter: %+v", snap.Counters)
	}
	lat := snap.Histograms["server.latency_seconds"]
	if lat.Count != 6 || !(lat.P50 > 0) || !(lat.P99 >= lat.P50) {
		t.Fatalf("latency quantiles: %+v", lat)
	}
	if occ := snap.Gauges["server.batch.occupancy"]; occ < 1 {
		t.Fatalf("batch occupancy gauge %v, want >= 1", occ)
	}
	if snap.Counters["sched.batches"] < 1 {
		t.Fatalf("scheduler metrics missing from shared registry: %+v", snap.Counters)
	}

	var spans []obs.Span
	get("/debug/spans", &spans)
	if len(spans) != 6 {
		t.Fatalf("span ring holds %d spans, want 6", len(spans))
	}
	var traced *obs.Span
	for i := range spans {
		if spans[i].Err == "" {
			traced = &spans[i]
			break
		}
	}
	if traced == nil {
		t.Fatal("no successful span recorded")
	}
	if traced.Trace == 0 {
		t.Fatal("span lost its wire-propagated trace ID")
	}
	if len(traced.Stages) != 3 || traced.Stages[2].Name != "compute" || traced.Stages[2].Dur <= 0 {
		t.Fatalf("span stages do not reconstruct the timeline: %+v", traced.Stages)
	}
	for _, name := range []string{"queue", "batch", "compute"} {
		found := false
		for _, st := range traced.Stages {
			if st.Name == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("span missing %q stage: %+v", name, traced.Stages)
		}
	}
	if traced.Attr("batch_size") < 1 {
		t.Fatalf("span attrs: %+v", traced.Attrs)
	}
}

// TestServerProfiling serves with WithProfiling and checks the remote
// part's layers accumulate per-layer timings (and registry histograms), the
// profile shows at /debug/profile, and Close detaches the hook.
func TestServerProfiling(t *testing.T) {
	split, srv, addr := identityRig(t, WithProfiling(), WithDebugServer("127.0.0.1:0"))
	prof := srv.obs.prof
	if prof == nil {
		t.Fatal("WithProfiling did not build a profiler")
	}
	client, err := Dial(addr, split, "cut", nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	x := tensor.New(1, 1, 2, 2).Fill(1)
	const n = 3
	for i := 0; i < n; i++ {
		if _, err := client.Infer(x); err != nil {
			t.Fatal(err)
		}
	}

	// The profiler hooks the whole shared network, so in this in-process
	// test it sees both the client's local pass ("cut[f64]") and the
	// server's remote pass — both compiled plans, hence the dtype tag.
	const postLabel = "post[f64]"
	var post obs.LayerProfile
	for _, lp := range prof.Table() {
		if lp.Layer == postLabel {
			post = lp
		}
	}
	if post.Layer == "" {
		t.Fatalf("remote layer missing from profile: %+v", prof.Table())
	}
	if post.ForwardCalls != n || post.ScratchBytes != n*4*8 {
		t.Fatalf("post layer accumulation: %+v", post)
	}
	if h := srv.Metrics().Snapshot().Histograms["profile.forward_seconds."+postLabel]; h.Count != n {
		t.Fatalf("per-layer histogram count %d, want %d", h.Count, n)
	}

	resp, err := http.Get("http://" + srv.DebugAddr() + "/debug/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var overHTTP []obs.LayerProfile
	if err := json.NewDecoder(resp.Body).Decode(&overHTTP); err != nil {
		t.Fatal(err)
	}
	served := false
	for _, lp := range overHTTP {
		if lp.Layer == postLabel && lp.ForwardCalls == n {
			served = true
		}
	}
	if !served {
		t.Fatalf("/debug/profile payload: %+v", overHTTP)
	}

	// Close must detach the profiler from the shared network: later passes
	// (e.g. another server over the same split) record nothing here.
	srv.Close()
	split.Forward(tensor.New(1, 1, 2, 2).Fill(1))
	for _, lp := range prof.Table() {
		if lp.Layer == postLabel && lp.ForwardCalls != n {
			t.Fatalf("profiler still attached after Close: %d calls", lp.ForwardCalls)
		}
	}
}
