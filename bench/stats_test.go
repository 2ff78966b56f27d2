package main

import (
	"errors"
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileRefusesThinTails(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool // accepted
	}{
		{199, 0.95, false}, // 9.95 samples beyond p95
		{200, 0.95, true},
		{999, 0.99, false},
		{1000, 0.99, true},
		{19, 0.50, false},
		{20, 0.50, true},
		{200, 0.05, true}, // the short side is the lower one
		{199, 0.05, false},
	} {
		_, err := percentile(seq(c.n), c.q)
		if (err == nil) != c.want {
			t.Errorf("percentile(%d samples, %v): err = %v, want accepted = %v", c.n, c.q, err, c.want)
		}
		if err != nil && !errors.Is(err, errTooFewSamples) {
			t.Errorf("percentile(%d samples, %v): err = %v, want errTooFewSamples", c.n, c.q, err)
		}
	}
	for _, q := range []float64{0, 1, -0.1, 1.5} {
		if _, err := percentile(seq(1000), q); err == nil {
			t.Errorf("percentile(q = %v) accepted a quantile outside (0, 1)", q)
		}
	}
}

func TestPercentileValue(t *testing.T) {
	xs := seq(1000) // 1..1000, shuffled order must not matter
	xs[0], xs[999] = xs[999], xs[0]
	got, err := percentile(xs, 0.95)
	if err != nil || !near(got, 950.05) {
		t.Errorf("p95 of 1..1000 = %v, %v; want 950.05", got, err)
	}
	if xs[0] != 1000 {
		t.Error("percentile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1}, 2},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4): q[2] - q[0].
func TestIQRMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5},
		{[]float64{3.1, 2.2, 9.5, 4.4, 5.0}, 4.6},
		{[]float64{1, 2}, 1.5},
		{[]float64{5}, 0},
		{nil, 0},
	} {
		if got := iqr(c.xs); !near(got, c.want) {
			t.Errorf("iqr(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("relSpread(1..10) = %v, want 1 (5.5 / 5.5)", got)
	}
	if got := relSpread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("relSpread of zeros = %v, want 0", got)
	}
}
