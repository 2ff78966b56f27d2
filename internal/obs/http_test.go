package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestDebugHandlerEndpoints exercises every route of the debug surface
// against a populated registry and span ring.
func TestDebugHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("server.requests").Add(3)
	reg.Histogram("server.latency").Observe(0.002)
	ring := NewSpanRing(8)
	ring.Record(Span{
		Trace: NewTraceID(), Name: "serve", ID: 7, Start: time.Now(),
		Dur:    3 * time.Millisecond,
		Stages: []Stage{{Name: "queue", Dur: time.Millisecond}, {Name: "compute", Dur: 2 * time.Millisecond}},
	}, nil, nil)
	ts := httptest.NewServer(Debug{Metrics: reg, Spans: ring}.Handler())
	defer ts.Close()

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		return resp
	}

	resp := get("/debug/metrics")
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Counters["server.requests"] != 3 {
		t.Fatalf("metrics endpoint lost a counter: %+v", snap)
	}
	if h := snap.Histograms["server.latency"]; h.Count != 1 || h.P50 <= 0 {
		t.Fatalf("metrics endpoint lost histogram quantiles: %+v", h)
	}

	resp = get("/debug/spans")
	var spans []Span
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(spans) != 1 || spans[0].Name != "serve" || len(spans[0].Stages) != 2 || spans[0].Stages[1] != (Stage{Name: "compute", Dur: 2 * time.Millisecond}) {
		t.Fatalf("spans endpoint: %+v", spans)
	}

	// ?n= limits to the newest spans.
	ring.Record(Span{Name: "serve2"}, nil, nil)
	resp = get("/debug/spans?n=1")
	spans = nil
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(spans) != 1 || spans[0].Name != "serve2" {
		t.Fatalf("spans?n=1 should keep the newest: %+v", spans)
	}

	get("/debug/vars").Body.Close()
	get("/debug/pprof/").Body.Close()
	resp = get("/")
	buf := make([]byte, 256)
	n, _ := resp.Body.Read(buf)
	resp.Body.Close()
	if !strings.Contains(string(buf[:n]), "/debug/metrics") {
		t.Fatal("index page should list the endpoints")
	}
}

// TestServeDebugLifecycle binds a real listener, hits it, and closes it.
func TestServeDebugLifecycle(t *testing.T) {
	d, err := Debug{Metrics: NewRegistry(), Spans: NewSpanRing(4)}.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + d.Addr + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + d.Addr + "/debug/metrics"); err == nil {
		t.Fatal("debug server still answering after Close")
	}
	var nilServer *DebugServer
	if err := nilServer.Close(); err != nil {
		t.Fatal("nil DebugServer Close must be a no-op")
	}
}

// TestHandlerWithNilBackends: the endpoints must serve empty documents, not
// crash, when no registry or ring is attached.
func TestHandlerWithNilBackends(t *testing.T) {
	ts := httptest.NewServer(Debug{}.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/metrics")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics with nil registry: %v %v", err, resp)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/debug/spans")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("spans with nil ring: %v %v", err, resp)
	}
	var spans []Span
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(spans) != 0 {
		t.Fatalf("nil ring served spans: %+v", spans)
	}
}
