package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"shredder/internal/tensor"
)

// quickRun runs one workload at the quick scale with tracing on, which
// yields both metric sets.
func quickRun(t *testing.T, name string, seed int64) (*result, *tracer) {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w = w.quick()
	tr := newTracer(12 * w.countN)
	res, err := runWorkload(w, quickScale, seed, t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	return res, tr
}

// TestSmoke runs all four workloads at the quick scale and checks that every
// named metric comes out, with its unit, and that no operation fails.
func TestSmoke(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		res, tr := quickRun(t, w.name, 1)
		if !res.correct || res.failed() != 0 {
			t.Errorf("%s: correct = %v, %d of %d operations failed: %v",
				w.name, res.correct, res.failed(), res.attempted(), res.problems)
		}
		for _, traced := range []bool{false, true} {
			line, err := jsonLine(res, traced)
			if err != nil {
				t.Errorf("%s: %v", w.name, err)
				continue
			}
			var got struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(strings.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("%s: result line %q: %v", w.name, line, err)
			}
			if got.Correct == nil || got.Attempted == nil || got.Failed == nil || *got.Attempted < 1 {
				t.Errorf("%s: result line lacks correct/attempted/failed: %s", w.name, line)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(got.Metrics) != len(defs) {
				t.Errorf("%s: %d metrics in the result line, want %d", w.name, len(got.Metrics), len(defs))
			}
			for _, m := range defs {
				v, ok := got.Metrics[m.name]
				switch {
				case !ok || v.Value == nil:
					t.Errorf("%s: metric %s missing", w.name, m.name)
				case v.Unit != m.unit:
					t.Errorf("%s: metric %s has unit %q, want %q", w.name, m.name, v.Unit, m.unit)
				case math.IsNaN(*v.Value) || math.IsInf(*v.Value, 0):
					t.Errorf("%s: metric %s = %v", w.name, m.name, *v.Value)
				case !traced && *v.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.name, m.name)
				}
			}
		}
		// The trace must explain the request: on the workload where the
		// benchmark's own glue is largest relative to the request, the
		// children of request cover at least 90 % of it.
		if cov := tr.coverage("request"); w.name == "edge_lenet" && cov < 0.9 {
			t.Errorf("edge_lenet: children of request cover %.1f %% of it, want >= 90 %%", 100*cov)
		}
		path := filepath.Join(t.TempDir(), "trace.jsonl")
		if err := tr.write(path); err != nil {
			t.Fatal(err)
		}
		checkTraceFile(t, path, w.quick().countN)
	}
	if d := time.Since(start); d > 20*time.Second && !testing.Short() {
		t.Errorf("the quick suite took %v, want under 20 s", d)
	}
}

// checkTraceFile reads a span file back: every line parses, every span has a
// name, an interval and a known parent, and every request has a root.
func checkTraceFile(t *testing.T, path string, requests int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[int]bool{}
	roots, counts := 0, 0
	var spans []span
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var rec struct {
			Type string
			span
			Unit string
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		switch rec.Type {
		case "span":
			if rec.Name == "" || rec.End < rec.Start || rec.ID == 0 {
				t.Errorf("bad span %+v", rec.span)
			}
			ids[rec.ID] = true
			spans = append(spans, rec.span)
			if rec.Parent == 0 {
				roots++
			}
		case "count":
			counts++
		default:
			t.Errorf("trace line of unknown type %q", rec.Type)
		}
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("span %d names parent %d, which is not in the file", s.ID, s.Parent)
		}
	}
	if roots != requests {
		t.Errorf("%d root spans, want one per request (%d)", roots, requests)
	}
	if counts != len(perLayer) {
		t.Errorf("%d counts in the trace file, want the %d per-layer metrics", counts, len(perLayer))
	}
}

// TestFixedCountDeterminism pins the metrics that are counted, not timed.
// They are taken on the fixed deployment over the fixed count list, so every
// run of one commit must report the same values, whatever its seed: that is
// what lets a driver hold runs of different seeds to a bound of 1-10 %. Wire
// bytes are compared to a fifth of a byte, not bit for bit: every request
// carries a trace ID minted from a per-process salt, and gob writes integers
// in as few bytes as they need, so about one request in a hundred is a byte
// shorter or longer.
func TestFixedCountDeterminism(t *testing.T) {
	for _, name := range []string{"edge_lenet", "fleet_svhn_q8"} {
		a, _ := quickRun(t, name, 7)
		for _, seed := range []int64{7, 8} {
			b, _ := quickRun(t, name, seed)
			for _, m := range []string{mNoisyErr, mMILoss, mInVivo} {
				if math.Float64bits(a.values[m]) != math.Float64bits(b.values[m]) {
					t.Errorf("%s: %s is %v at seed 7 and %v at seed %d", name, m, a.values[m], b.values[m], seed)
				}
			}
			if d := math.Abs(a.values[mWireBytes] - b.values[mWireBytes]); d > 0.2 {
				t.Errorf("%s: %s differs by %v B/req between seed 7 and seed %d", name, mWireBytes, d, seed)
			}
		}
	}
}

// TestSeedDealsTraffic pins what -seed does reach: the same seed deals the
// same serve traffic, another seed other traffic, and neither touches the
// count list.
func TestSeedDealsTraffic(t *testing.T) {
	w, _ := workloadByName("edge_lenet")
	prepared := func(seed int64) *run {
		r := newRun(w.quick(), quickScale, seed, t.TempDir(), nil)
		if err := r.prepare(); err != nil {
			t.Fatal(err)
		}
		return r
	}
	same := func(a, b []*tensor.Tensor) bool {
		for i := range a {
			if !bitwiseEqual(a[i].Data(), b[i].Data()) {
				return false
			}
		}
		return len(a) == len(b)
	}
	a, b, c := prepared(7), prepared(7), prepared(8)
	if !same(a.pool, b.pool) {
		t.Error("two runs of seed 7 dealt different serve traffic")
	}
	if same(a.pool, c.pool) {
		t.Error("seeds 7 and 8 dealt the same serve traffic: the seed does not reach the inputs")
	}
	if !same(a.reqs, c.reqs) {
		t.Error("the count list depends on the seed")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step with
// the metric and workload tables of this package.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, gated bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the benchmark", len(got), kind, len(want))
		}
		for i, m := range want {
			better := "lower"
			if m.higher {
				better = "higher"
			}
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark {%s %s %s}", kind, i, g, m.name, m.unit, better)
			}
			if gated != (g.Bound != nil) || (gated && *g.Bound != m.bound) {
				t.Errorf("%s metric %s: bound in BENCHMARK.json does not match %v", kind, m.name, m.bound)
			}
		}
	}
	check("end-to-end", spec.EndToEnd, endToEnd, true)
	check("per-layer", spec.PerLayer, perLayer, false)
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
}
