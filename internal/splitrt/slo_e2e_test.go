package splitrt

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"shredder/internal/core"
	"shredder/internal/obs"
	"shredder/internal/tensor"
)

// The observability acceptance path: serve with a privacy SLO, drive
// traffic that degrades the realized in-vivo 1/SNR, watch the firing
// event appear at /debug/events, recover, watch it resolve — then the
// same through a gateway's fan-out, and the Prometheus exposition of it
// all.

// sloInput builds a [1,1,2,2] batch of constant positive values, so the
// activation at the identity rig's cut is the value itself and
// E[a²] = scale². With the one-member auditNoise collection
// (Var(noise) = 0.3125) the client's sampled in-vivo 1/SNR is
// 0.3125/scale²: scale 0.5 → 1.25 (private), scale 10 → 0.003125
// (degraded, breaching any sane floor).
func sloInput(scale float64) *tensor.Tensor {
	x := tensor.New(1, 1, 2, 2)
	for i := range x.Data() {
		x.Data()[i] = scale
	}
	return x
}

// fetchEvents pulls a /debug/events endpoint.
func fetchEvents(t *testing.T, base string) []obs.Event {
	t.Helper()
	resp, err := http.Get(base + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []obs.Event
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	return events
}

// driveUntilEvent sends traffic at the given scale until the event feed
// contains a privacy.invivo transition in the wanted state (from the
// wanted source), returning that event.
func driveUntilEvent(t *testing.T, client *EdgeClient, scale float64, base string, state obs.EventState, source string) obs.Event {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		for i := 0; i < 5; i++ {
			if _, err := client.Infer(sloInput(scale)); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range fetchEvents(t, base) {
			if e.Name == "privacy.invivo" && e.State == state && e.Source == source {
				return e
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %s privacy.invivo event from %q at %s (events: %+v)",
				state, source, base, fetchEvents(t, base))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// promVerify is a minimal exposition-format parser: every line must be a
// well-formed `# TYPE name kind` comment or `name[{labels}] value`
// sample, and every histogram must end its bucket series with a le="+Inf"
// bucket equal to its _count. Returns the samples keyed verbatim.
func promVerify(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	histograms := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) != 4 || f[1] != "TYPE" {
				t.Fatalf("malformed comment %q", line)
			}
			if f[3] == "histogram" {
				histograms[f[2]] = true
			}
			continue
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("malformed sample %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		samples[key] = val
	}
	for name := range histograms {
		inf, ok := samples[name+`_bucket{le="+Inf"}`]
		if !ok {
			t.Fatalf("histogram %s is missing its +Inf bucket", name)
		}
		if count := samples[name+"_count"]; inf != count {
			t.Fatalf("histogram %s: +Inf bucket %v != count %v", name, inf, count)
		}
	}
	return samples
}

// TestServeSLOPrivacyEndToEnd: a server with a privacy floor over the
// relayed in-vivo 1/SNR fires when large-magnitude activations drown the
// (fixed-variance) edge noise, and resolves once the traffic recovers.
func TestServeSLOPrivacyEndToEnd(t *testing.T) {
	split, _, _ := fleetRig(t, 0)
	srv := NewCloudServer(split, "cut",
		WithDebugServer("127.0.0.1:0"),
		WithWindows(obs.WindowOptions{Bucket: 25 * time.Millisecond, Buckets: 4}),
		WithSLO(10*time.Millisecond,
			obs.Objective{
				Name:      "privacy.invivo",
				Metric:    core.MetricInVivo,
				Aggregate: obs.AggMean,
				Op:        obs.OpAtLeast,
				Target:    0.1,
				MinCount:  3,
			},
			obs.Objective{ // a latency ceiling that never fires on loopback
				Name:      "latency.p99",
				Metric:    "server.latency_seconds",
				Aggregate: obs.AggP99,
				Op:        obs.OpAtMost,
				Target:    10,
			},
		))
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.DebugAddr()

	noise := auditNoise()
	mon := core.NewPrivacyMonitor(obs.NewRegistry(), noise, 0.1, 1)
	client, err := Dial(addr, split, "cut", noise, 23, WithPrivacyTelemetry(mon))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Healthy traffic: strong noise relative to the signal, no events.
	for i := 0; i < 10; i++ {
		if _, err := client.Infer(sloInput(0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if events := fetchEvents(t, base); len(events) != 0 {
		t.Fatalf("healthy traffic emitted %+v", events)
	}

	// Degrade: large activations drown the fixed noise, the windowed mean
	// 1/SNR sinks below the floor, and a firing event appears.
	firing := driveUntilEvent(t, client, 10, base, obs.StateFiring, "")
	if firing.Value >= 0.1 || firing.Target != 0.1 || firing.Op != obs.OpAtLeast {
		t.Fatalf("firing event payload: %+v", firing)
	}

	// While firing, the SLO's live state is visible in the plain metrics
	// snapshot (and hence in any merged fleet view).
	resp, err := http.Get(base + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Gauges["slo.privacy.invivo.firing"] != 1 {
		t.Fatalf("firing gauge = %v while breaching", snap.Gauges["slo.privacy.invivo.firing"])
	}
	if snap.Window == nil {
		t.Fatal("windowed snapshot missing from /debug/metrics")
	}
	if wh := snap.Window.Histograms[core.MetricInVivo]; wh.Count == 0 {
		t.Fatalf("windowed privacy.invivo empty: %+v", snap.Window.Histograms)
	}

	// Recover: the degraded samples age out of the window and the
	// objective resolves.
	resolved := driveUntilEvent(t, client, 0.5, base, obs.StateResolved, "")
	if resolved.Value < 0.1 {
		t.Fatalf("resolved event payload: %+v", resolved)
	}

	// The whole story — cumulative histograms, slo.* gauges, windowed
	// aggregates — exports as valid Prometheus text.
	resp, err = http.Get(base + "/debug/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("prom Content-Type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	samples := promVerify(t, string(body))
	if samples["slo_privacy_invivo_firing"] != 0 {
		t.Fatalf("prom firing gauge = %v after resolve", samples["slo_privacy_invivo_firing"])
	}
	if samples["privacy_invivo_count"] == 0 {
		t.Fatal("prom exposition lost the privacy histogram")
	}
	if _, ok := samples["privacy_invivo_window_p99"]; !ok {
		t.Fatal("prom exposition lost the windowed quantile gauges")
	}
	if samples["server_requests"] == 0 {
		t.Fatal("prom exposition lost the request counter")
	}
}

// TestGatewaySLOEventFanOut: a gateway fronting an SLO-enabled backend
// serves the fleet's merged alert stream — the backend's firing event
// arrives labelled with its source, and the gateway's own privacy SLO
// (fed by the audit notes it relays) fires alongside it.
func TestGatewaySLOEventFanOut(t *testing.T) {
	privacyFloor := func() obs.Objective {
		return obs.Objective{
			Name:      "privacy.invivo",
			Metric:    core.MetricInVivo,
			Aggregate: obs.AggMean,
			Op:        obs.OpAtLeast,
			Target:    0.1,
			MinCount:  3,
		}
	}
	split, _, _ := fleetRig(t, 0)
	srv := NewCloudServer(split, "cut",
		WithDebugServer("127.0.0.1:0"),
		WithWindows(obs.WindowOptions{Bucket: 25 * time.Millisecond, Buckets: 4}),
		WithSLO(10*time.Millisecond, privacyFloor()))
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	backendBase := "http://" + srv.DebugAddr()

	pool, err := NewPool(split, "cut", nil, 29, []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	// One base URL: the gateway derives the three routes and labels the
	// backend by its pool address.
	label := "backend." + addr
	promLabel := strings.ReplaceAll(label, ".", "_") // the exposition keeps the colon
	gw := NewGateway(pool,
		WithDebugServer("127.0.0.1:0"),
		WithWindows(obs.WindowOptions{Bucket: 25 * time.Millisecond, Buckets: 4}),
		WithSLO(10*time.Millisecond, privacyFloor()),
		WithBackends(backendBase))
	gwAddr, err := gw.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	gwBase := "http://" + gw.DebugAddr()

	noise := auditNoise()
	mon := core.NewPrivacyMonitor(obs.NewRegistry(), noise, 0.1, 1)
	client, err := Dial(gwAddr, split, "cut", noise, 31, WithPrivacyTelemetry(mon))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Degraded traffic through the gateway: the backend's SLO fires (its
	// event reaches the gateway's merged stream under the backend's label) and
	// the gateway's own fleet-level SLO fires locally.
	local := driveUntilEvent(t, client, 10, gwBase, obs.StateFiring, "")
	if local.Value >= 0.1 {
		t.Fatalf("gateway-local firing event: %+v", local)
	}
	relayed := driveUntilEvent(t, client, 10, gwBase, obs.StateFiring, label)
	if relayed.Value >= 0.1 {
		t.Fatalf("backend firing event: %+v", relayed)
	}

	// The merged metrics snapshot carries the backend's alert state and
	// windowed series under its label, and still exports as valid prom
	// text (dotted prefixes sanitized).
	resp, err := http.Get(gwBase + "/debug/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	samples := promVerify(t, string(body))
	if samples[promLabel+"_slo_privacy_invivo_firing"] != 1 {
		t.Fatalf("merged prom lost the backend's firing gauge (%v)",
			samples[promLabel+"_slo_privacy_invivo_firing"])
	}
	if samples["slo_privacy_invivo_firing"] != 1 {
		t.Fatal("merged prom lost the gateway's own firing gauge")
	}
	if _, ok := samples[promLabel+"_window_seconds"]; !ok {
		t.Fatal("merged prom lost the backend's window span gauge")
	}

	// Kill the backend's debug feed: the outage itself must appear in the
	// merged event stream instead of silently blinding it.
	srv.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		found := false
		for _, e := range fetchEvents(t, gwBase) {
			if e.Name == "event-source" && e.Source == label && e.State == obs.StateFiring {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dead backend never surfaced as an event-source event")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeSLOInvalidObjective: a bad objective defers its error to Serve,
// mirroring how compile errors surface.
func TestServeSLOInvalidObjective(t *testing.T) {
	split, _, _ := fleetRig(t, 0)
	srv := NewCloudServer(split, "cut",
		WithSLO(0, obs.Objective{Name: "bad", Metric: "m", Aggregate: "p42", Op: obs.OpAtMost}))
	if _, err := srv.Serve("127.0.0.1:0"); err == nil || !strings.Contains(err.Error(), "p42") {
		srv.Close()
		t.Fatalf("Serve err = %v, want aggregate validation error", err)
	}
}
