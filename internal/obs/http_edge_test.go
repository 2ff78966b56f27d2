package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestDebugContentTypes: every built-in endpoint pins an explicit
// Content-Type.
func TestDebugContentTypes(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x").Inc()
	d := Debug{
		Metrics: reg,
		Spans:   NewSpanRing(4),
		Profile: NewProfiler(reg),
		Events:  NewEventRing(4),
	}
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	cases := []struct {
		path string
		want string
	}{
		{"/debug/metrics", "application/json"},
		{"/debug/metrics?format=prom", "text/plain; version=0.0.4; charset=utf-8"},
		{"/debug/spans", "application/json"},
		{"/debug/profile", "application/json"},
		{"/debug/profile?format=csv", "text/csv; charset=utf-8"},
		{"/debug/profile?format=text", "text/plain; charset=utf-8"},
		{"/debug/events", "application/json"},
		{"/debug/events?after=0", "application/json"},
		{"/debug/vars", "application/json; charset=utf-8"},
		{"/", "text/plain; charset=utf-8"},
	}
	for _, tc := range cases {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %s", tc.path, resp.Status)
			continue
		}
		if got := resp.Header.Get("Content-Type"); got != tc.want {
			t.Errorf("GET %s: Content-Type %q, want %q", tc.path, got, tc.want)
		}
	}
}

// TestDebugNilFieldsServeEmpty: a Debug with every field nil serves empty
// documents on each endpoint instead of crashing.
func TestDebugNilFieldsServeEmpty(t *testing.T) {
	ts := httptest.NewServer(Debug{}.Handler())
	defer ts.Close()

	cases := []struct {
		path string
		want string // exact body for JSON endpoints, prefix "" = any
	}{
		{"/debug/metrics?format=prom", ""}, // empty exposition is valid
		{"/debug/spans", "[]"},
		{"/debug/profile", "[]"},
		{"/debug/events", "[]"},
		{"/debug/events?after=3", "[]"},
	}
	for _, tc := range cases {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %s", tc.path, resp.Status)
			continue
		}
		if got := strings.TrimSpace(string(body)); got != tc.want {
			t.Errorf("GET %s: body %q, want %q", tc.path, got, tc.want)
		}
	}

	// /debug/metrics on a nil registry still returns a well-formed (empty)
	// snapshot document.
	resp, err := http.Get(ts.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(snap.Counters) != 0 || snap.Window != nil {
		t.Fatalf("nil registry snapshot: %+v", snap)
	}
}

// TestDebugAuditMounts: an Audit handler serves /debug/audit and appears on
// the index page.
func TestDebugAuditMounts(t *testing.T) {
	d := Debug{Audit: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("audit ok"))
	})}
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/audit")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "audit ok" {
		t.Fatalf("audit handler body %q", body)
	}
	resp, err = http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "/debug/audit") {
		t.Fatal("index page should list /debug/audit")
	}
}

// TestDebugProcessGauges: attaching a registry to the debug surface
// registers the process.* runtime gauges, refreshed on every scrape.
func TestDebugProcessGauges(t *testing.T) {
	reg := NewRegistry()
	ts := httptest.NewServer(Debug{Metrics: reg}.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, name := range []string{
		"process.uptime_seconds", "process.goroutines", "process.heap_bytes",
		"process.gc_pause_total_seconds", "process.gc_cycles",
	} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("missing runtime gauge %s", name)
		}
	}
	if snap.Gauges["process.goroutines"] < 1 {
		t.Fatalf("goroutines gauge = %v", snap.Gauges["process.goroutines"])
	}
	if snap.Gauges["process.heap_bytes"] <= 0 {
		t.Fatalf("heap gauge = %v", snap.Gauges["process.heap_bytes"])
	}
	// Registering twice must not double-install the hook.
	RegisterProcessMetrics(reg)
	RegisterProcessMetrics(reg)
	if !reg.HasSnapshotHook("process") {
		t.Fatal("process hook missing")
	}
	RegisterProcessMetrics(nil) // nil-safe
}

// TestDebugEventsEndpoint: the ring serves JSON events, ?after=seq serves
// the increment, and EventSources fan the stream out.
func TestDebugEventsEndpoint(t *testing.T) {
	ring := NewEventRing(8)
	ring.Append(Event{UnixNanos: 1, Name: "a", State: StateFiring})
	ring.Append(Event{UnixNanos: 2, Name: "b", State: StateResolved})
	ts := httptest.NewServer(Debug{Events: ring}.Handler())
	defer ts.Close()

	getEvents := func(url string) []Event {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out []Event
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	if out := getEvents(ts.URL + "/debug/events"); len(out) != 2 || out[0].Name != "a" {
		t.Fatalf("events = %+v", out)
	}
	if out := getEvents(ts.URL + "/debug/events?after=1"); len(out) != 1 || out[0].Name != "b" {
		t.Fatalf("events?after=1 = %+v", out)
	}

	// A gateway surface: local ring plus a backend's event feed, served
	// merged — including a backend fetched over HTTP.
	merged := httptest.NewServer(Debug{
		Events: ring,
		EventSources: []Source[[]Event]{
			HTTPSource[[]Event]("backend.a", ts.URL+"/debug/events"),
		},
	}.Handler())
	defer merged.Close()
	out := getEvents(merged.URL + "/debug/events")
	if len(out) != 4 {
		t.Fatalf("merged events = %+v", out)
	}
	labelled := 0
	for _, e := range out {
		if e.Source == "backend.a" {
			labelled++
		}
	}
	if labelled != 2 {
		t.Fatalf("want 2 backend.a-labelled events, got %d in %+v", labelled, out)
	}
}

// TestDebugMetricsWindowAttached: a Debug with Windows attached includes
// the window field in the JSON payload, advanced by the scrape itself.
func TestDebugMetricsWindowAttached(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("server.requests")
	w := NewWindows(reg, WindowOptions{Bucket: time.Millisecond, Buckets: 4})
	w.Advance(time.Now().Add(-10 * time.Millisecond))
	c.Add(5)
	ts := httptest.NewServer(Debug{Metrics: reg, Windows: w}.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Window == nil {
		t.Fatal("scrape should attach the window")
	}
	if got := snap.Window.Counters["server.requests"]; got.Delta != 5 {
		t.Fatalf("window delta over scrape = %+v", got)
	}
}
