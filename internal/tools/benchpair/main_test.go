package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The quartiles are Python's statistics.quantiles(xs, n=4) (exclusive
// method): for 1…10 that is 2.75 and 8.25, and the median is 5.5.
func TestSummaryQuartiles(t *testing.T) {
	got := summary([]float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6})
	if got != (Summary{Median: 5.5, Q1: 2.75, Q3: 8.25, N: 10}) {
		t.Fatalf("summary of 1…10: %+v", got)
	}
	if got := summary([]float64{4, 1, 9}); got.Median != 4 || got.N != 3 {
		t.Fatalf("summary of an odd count: %+v", got)
	}
}

// A run's verdict is its last line; pair i is each side's i-th run, and the
// change wins it only by being strictly better in the metric's direction.
func TestPairsFromLastLines(t *testing.T) {
	specs := []metricSpec{{Name: "wire_bytes_per_req", Better: "lower", Bound: 0.01}, {Name: "mi_loss_pct", Better: "higher"}}
	wl := &Workload{Runs: map[string]Runs{}, Metrics: map[string]*Metric{}}
	for i, out := range []string{
		"# table\n" + `{"correct":true,"attempted":10,"failed":0,"metrics":{"wire_bytes_per_req":{"value":100},"mi_loss_pct":{"value":5}}}` + "\n",
		`{"correct":true,"attempted":10,"failed":1,"metrics":{"wire_bytes_per_req":{"value":90},"mi_loss_pct":{"value":5}}}`,
		`{"correct":false,"attempted":10,"failed":0,"metrics":{"wire_bytes_per_req":{"value":100},"mi_loss_pct":{"value":4}}}`,
		`{"correct":true,"attempted":10,"failed":0,"metrics":{"wire_bytes_per_req":{"value":100},"mi_loss_pct":{"value":6}}}`,
	} {
		l, err := parseLast([]byte(out))
		if err != nil {
			t.Fatal(err)
		}
		wl.add(specs, i%2, l) // base, change, base, change
	}
	wl.summarize()
	if m := wl.Metrics["wire_bytes_per_req"]; m.PairsWon != 1 || m.Change.Median != 95 || m.Base.Median != 100 {
		t.Fatalf("wire bytes: %+v", m)
	}
	if m := wl.Metrics["mi_loss_pct"]; m.PairsWon != 1 {
		t.Fatalf("a tie won a pair, or a higher-is-better win was missed: %+v", m)
	}
	if r := wl.Runs["change"]; r.Attempted != 20 || r.Failed != 1 || wl.Runs["base"].Incorrect != 1 {
		t.Fatalf("run counts: %+v", wl.Runs)
	}

	c := &contract{EndToEnd: specs[:1], PerLayer: specs[1:]}
	r := &Report{Workloads: map[string]*Workload{"edge": wl}}
	var out bytes.Buffer
	printTable(&out, c, r, r, true, nil)
	for _, want := range []string{"wire_bytes_per_req", "-5.00%", "bound 1%: ok", "mi_loss_pct", "1/2"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table lacks %q:\n%s", want, out.String())
		}
	}
}

// report is a one-workload report whose metrics have the given base and
// change medians.
func report(medians map[string][2]float64) *Report {
	wl := &Workload{Metrics: map[string]*Metric{}}
	for name, m := range medians {
		wl.Metrics[name] = &Metric{Better: "lower", Bound: 0.01,
			Base: Summary{Median: m[0], N: 10}, Change: Summary{Median: m[1], N: 10}, PairsWon: 7}
	}
	return &Report{Workloads: map[string]*Workload{"cloud": wl}}
}

// A control's per-layer deltas print beside the change's, in their own
// column; an end-to-end metric, judged by its bound, gets none, and is
// unresolved when its base's interquartile range is wider than the bound.
// -compare takes as control only a file that says it is one, and reads a
// backfilled file, which holds medians alone.
func TestCompareWithControl(t *testing.T) {
	c := &contract{EndToEnd: []metricSpec{{Name: "wire_bytes_per_req", Better: "lower", Bound: 0.01}, {Name: "setup_s", Better: "lower", Bound: 0.1}},
		PerLayer: []metricSpec{{Name: "quantize.pack_us", Better: "lower"}}}
	change := report(map[string][2]float64{"wire_bytes_per_req": {100, 90}, "quantize.pack_us": {10, 12}, "setup_s": {5, 5.8}})
	setup := change.Workloads["cloud"].Metrics["setup_s"]
	setup.Bound, setup.Base.Q1, setup.Base.Q3 = 0.1, 4.5, 5.3 // +16 % on a 16 % IQR
	control := report(map[string][2]float64{"wire_bytes_per_req": {100, 100}, "quantize.pack_us": {10, 11.5}})
	control.Control = true
	var out bytes.Buffer
	printTable(&out, c, change, change, true, control)
	lines := strings.Split(out.String(), "\n")
	if !strings.Contains(lines[0], "a/a") {
		t.Fatalf("no a/a column:\n%s", out.String())
	}
	for _, l := range lines[1:] {
		switch {
		case strings.Contains(l, "quantize.pack_us"):
			if !strings.Contains(l, "+20.00%") || !strings.Contains(l, "+15.00%") {
				t.Errorf("per-layer row lacks the change's +20%% or the control's +15%%: %q", l)
			}
		case strings.Contains(l, "wire_bytes_per_req"):
			if strings.Contains(l, "+0.00%") || !strings.Contains(l, "bound 1%: ok") {
				t.Errorf("gated row: %q", l)
			}
		case strings.Contains(l, "setup_s"):
			if !strings.Contains(l, "bound 10%: unresolved (IQR 16%)") {
				t.Errorf("gated row with a wide IQR: %q", l)
			}
		}
	}

	dir := t.TempDir()
	write := func(name string, r *Report) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	backfilled := report(map[string][2]float64{"wire_bytes_per_req": {131238, 118947}})
	backfilled.Backfilled = true
	a, b := write("BENCH_43.json", backfilled), write("BENCH_45.json", change)
	out.Reset()
	if err := compareFiles(&out, c, a, b, write("BENCH_45_control.json", control)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "118947") || !strings.Contains(out.String(), "a/a") {
		t.Errorf("a backfilled file against a measured one:\n%s", out.String())
	}
	if err := compareFiles(&out, c, a, b, b); err == nil {
		t.Error("a change report was taken as a control")
	}
}
