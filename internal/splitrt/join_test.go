package splitrt

// Tests for the client↔server span join: the end-to-end seven-stage joined
// timeline over a real batching server, server-side per-layer profiling
// behind WithProfiling, and the /debug/spans?join=1 surface. (That a peer
// whose response header lacks the server-timing fields still interoperates
// is TestFrameHeaderCompatibility's to pin.)

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"shredder/internal/obs"
	"shredder/internal/sched"
	"shredder/internal/tensor"
)

// TestJoinedSpanEndToEnd is the acceptance test for the span join: a live
// edge client (quantized wire, span recording) against a live batching
// cloud server (observability + span join), then the joined timeline must
// carry all seven canonical stages with non-negative durations summing to
// at most the client-observed span, and a plausible clock offset (same
// host, so bounded by the RTT midpoint error).
func TestJoinedSpanEndToEnd(t *testing.T) {
	clientRing := obs.NewSpanRing(64)
	split, srv, addr := identityRig(t,
		WithBatching(sched.Options{MaxBatch: 4, MaxDelay: time.Millisecond}),
		WithSpanJoin(clientRing),
		WithDebugServer("127.0.0.1:0"))

	client, err := Dial(addr, split, "cut", nil, 1, WithSpans(clientRing))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if client.spans != clientRing {
		t.Fatal("client did not adopt the span ring")
	}
	if err := client.SetWireQuantization(8); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 1, 2, 2).Fill(1)
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := client.Infer(x); err != nil {
			t.Fatal(err)
		}
	}

	joined := srv.obs.joiner.Joined()
	if len(joined) != n {
		t.Fatalf("joined %d spans, want %d", len(joined), n)
	}
	for _, j := range joined {
		if j.Trace == 0 || j.Err != "" || j.Dur <= 0 {
			t.Fatalf("joined span malformed: %+v", j)
		}
		if len(j.Stages) != len(obs.JoinedStages) {
			t.Fatalf("joined span has %d stages, want %d: %+v", len(j.Stages), len(obs.JoinedStages), j.Stages)
		}
		var sum time.Duration
		for i, name := range obs.JoinedStages {
			st := j.Stages[i]
			if st.Name != name {
				t.Fatalf("stage %d is %q, want %q", i, st.Name, name)
			}
			if st.Dur < 0 {
				t.Fatalf("stage %q has negative duration %v", name, st.Dur)
			}
			sum += st.Dur
		}
		if sum > j.Dur {
			t.Fatalf("stages sum to %v, more than the %v round trip", sum, j.Dur)
		}
		// Serializing the request and running the batch both do real work;
		// the loopback clock resolves them.
		if j.StageDur("serialize") <= 0 {
			t.Fatalf("serialize stage empty: %+v", j.Stages)
		}
		if j.StageDur("queue")+j.StageDur("batch")+j.StageDur("compute") <= 0 {
			t.Fatalf("server-side stages all empty: %+v", j.Stages)
		}
		// Client and server share one clock here, so the estimated offset is
		// pure RTT-midpoint error — far below a second on loopback.
		if off := j.ClockOffset; off > time.Second || off < -time.Second {
			t.Fatalf("clock offset %v implausible on one host", off)
		}
		if j.Attrs["server_elapsed_ns"] <= 0 {
			t.Fatalf("server elapsed attr missing: %+v", j.Attrs)
		}
	}

	// The same join must be served over HTTP at /debug/spans?join=1.
	resp, err := http.Get("http://" + srv.DebugAddr() + "/debug/spans?join=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/spans?join=1: %s", resp.Status)
	}
	var overHTTP []obs.JoinedSpan
	if err := json.NewDecoder(resp.Body).Decode(&overHTTP); err != nil {
		t.Fatal(err)
	}
	if len(overHTTP) != n || len(overHTTP[0].Stages) != len(obs.JoinedStages) {
		t.Fatalf("debug join payload: %d spans, %+v", len(overHTTP), overHTTP)
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
