package obs

import (
	"bufio"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// promParse is a minimal exposition-format checker: it validates every
// line is either a well-formed comment or a `name[{labels}] value` sample,
// TYPE declarations precede their samples, histogram buckets are
// cumulative and end at +Inf with the _count value, and returns the
// samples keyed by "name{labels}".
func promParse(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	types := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	nameOK := func(s string) bool {
		for i, c := range s {
			switch {
			case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			case c >= '0' && c <= '9':
				if i == 0 {
					return false
				}
			default:
				return false
			}
		}
		return s != ""
	}
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) != 4 || f[1] != "TYPE" || !nameOK(f[2]) {
				t.Fatalf("malformed comment line %q", line)
			}
			switch f[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("unknown type in %q", line)
			}
			types[f[2]] = f[3]
			continue
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil && valStr != "+Inf" && valStr != "-Inf" && valStr != "NaN" {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("unterminated labels in %q", line)
			}
			name = key[:i]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) && types[strings.TrimSuffix(name, suffix)] == "histogram" {
				base = strings.TrimSuffix(name, suffix)
			}
		}
		if !nameOK(name) {
			t.Fatalf("illegal metric name in %q", line)
		}
		if _, declared := types[base]; !declared {
			t.Fatalf("sample %q precedes its # TYPE declaration", line)
		}
		samples[key] = val
	}
	// Histogram invariants: buckets cumulative, +Inf present and equal to
	// _count.
	for name, typ := range types {
		if typ != "histogram" {
			continue
		}
		var les []float64
		for key := range samples {
			if strings.HasPrefix(key, name+"_bucket{le=\"") {
				leStr := strings.TrimSuffix(strings.TrimPrefix(key, name+"_bucket{le=\""), "\"}")
				le := math.Inf(1)
				if leStr != "+Inf" {
					v, err := strconv.ParseFloat(leStr, 64)
					if err != nil {
						t.Fatalf("bad le in %q: %v", key, err)
					}
					le = v
				}
				les = append(les, le)
			}
		}
		hasInf := false
		prev := -1.0
		for _, le := range sortedFloats(les) {
			key := fmt.Sprintf("%s_bucket{le=%q}", name, promFloat(le))
			if samples[key] < prev {
				t.Fatalf("%s buckets not cumulative at le=%v", name, le)
			}
			prev = samples[key]
			if math.IsInf(le, 1) {
				hasInf = true
				if samples[key] != samples[name+"_count"] {
					t.Fatalf("%s +Inf bucket %v != count %v", name, samples[key], samples[name+"_count"])
				}
			}
		}
		if !hasInf {
			t.Fatalf("histogram %s has no +Inf bucket", name)
		}
	}
	return samples
}

func sortedFloats(v []float64) []float64 {
	out := append([]float64(nil), v...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestWritePromBasic: counters, gauges, and a histogram with overflow
// observations round-trip through the exposition format.
func TestWritePromBasic(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("server.requests").Add(42)
	reg.Gauge("pool.backends").Set(3)
	h := reg.Histogram("server.latency_seconds", 0.001, 0.01, 0.1)
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(5) // overflow

	var b strings.Builder
	if err := WriteProm(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	samples := promParse(t, b.String())
	if samples["server_requests"] != 42 {
		t.Fatalf("counter sample = %v", samples["server_requests"])
	}
	if samples["pool_backends"] != 3 {
		t.Fatalf("gauge sample = %v", samples["pool_backends"])
	}
	if got := samples[`server_latency_seconds_bucket{le="+Inf"}`]; got != 3 {
		t.Fatalf("+Inf bucket = %v, want 3 (must include overflow)", got)
	}
	if got := samples[`server_latency_seconds_bucket{le="0.001"}`]; got != 1 {
		t.Fatalf("first bucket = %v, want cumulative 1", got)
	}
	if got := samples[`server_latency_seconds_bucket{le="0.1"}`]; got != 2 {
		t.Fatalf("last finite bucket = %v, want cumulative 2", got)
	}
	if samples["server_latency_seconds_count"] != 3 {
		t.Fatalf("count = %v", samples["server_latency_seconds_count"])
	}
	if math.Abs(samples["server_latency_seconds_sum"]-5.0505) > 1e-9 {
		t.Fatalf("sum = %v", samples["server_latency_seconds_sum"])
	}
}

// TestWritePromWindow: windowed aggregates land as *_window_* gauges plus
// the covered-span gauge.
func TestWritePromWindow(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("server.requests")
	h := reg.Histogram("server.latency_seconds", 0.001, 0.01, 0.1)
	w := NewWindows(reg, WindowOptions{Bucket: time.Second, Buckets: 4})
	t0 := time.Unix(0, 0)
	w.AdvanceWith(t0, reg.Snapshot())
	c.Add(20)
	for i := 0; i < 10; i++ {
		h.Observe(0.05)
	}
	snap := reg.Snapshot()
	snap.Window = w.AdvanceWith(t0.Add(2*time.Second), snap)

	var b strings.Builder
	if err := WriteProm(&b, snap); err != nil {
		t.Fatal(err)
	}
	samples := promParse(t, b.String())
	if samples["window_seconds"] != 2 {
		t.Fatalf("window_seconds = %v", samples["window_seconds"])
	}
	if samples["server_requests_window_rate"] != 10 {
		t.Fatalf("window rate = %v, want 10/s", samples["server_requests_window_rate"])
	}
	if p99 := samples["server_latency_seconds_window_p99"]; p99 <= 0.01 || p99 > 0.1 {
		t.Fatalf("window p99 = %v, want in (0.01, 0.1]", p99)
	}
	if mean := samples["server_latency_seconds_window_mean"]; math.Abs(mean-0.05) > 1e-9 {
		t.Fatalf("window mean = %v", mean)
	}
}

// TestWritePromMerged: a merged (gateway) snapshot — dotted per-backend
// prefixes and all — still emits valid exposition text.
func TestWritePromMerged(t *testing.T) {
	backend := NewRegistry()
	backend.Counter("server.requests").Add(7)
	backend.Histogram("server.latency_seconds", 0.001, 0.01).Observe(0.002)
	base := NewRegistry()
	base.Counter("gateway.requests").Add(9)
	snap := Debug{Metrics: base, Sources: []Source[Snapshot]{
		{Label: "backend.a", Fetch: func() (Snapshot, error) { return backend.Snapshot(), nil }},
		{Label: "backend.b", Fetch: func() (Snapshot, error) { return Snapshot{}, fmt.Errorf("down") }},
	}}.snapshot(time.Now())

	var b strings.Builder
	if err := WriteProm(&b, snap); err != nil {
		t.Fatal(err)
	}
	samples := promParse(t, b.String())
	if samples["backend_a_server_requests"] != 7 {
		t.Fatalf("merged counter = %v", samples["backend_a_server_requests"])
	}
	if samples["gateway_requests"] != 9 {
		t.Fatalf("base counter = %v", samples["gateway_requests"])
	}
	if samples["merge_failed_backend_b"] != 1 {
		t.Fatalf("failed source marker = %v", samples["merge_failed_backend_b"])
	}
	if samples["backend_a_server_latency_seconds_count"] != 1 {
		t.Fatalf("merged histogram count = %v", samples["backend_a_server_latency_seconds_count"])
	}
}

// TestPromName: sanitization produces legal names.
func TestPromName(t *testing.T) {
	cases := map[string]string{
		"server.requests":     "server_requests",
		"backend.a.lat-p99":   "backend_a_lat_p99",
		"9lives":              "_9lives",
		"ok_name:with:colons": "ok_name:with:colons",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
