package main

import (
	"bytes"
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
	printTable(&out, c, r, r, true)
	for _, want := range []string{"wire_bytes_per_req", "-5.00%", "bound 1%: ok", "mi_loss_pct", "1/2"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table lacks %q:\n%s", want, out.String())
		}
	}
}
