package main

import (
	"errors"
	"math"
	"sort"
)

// minTailSamples is how many samples must lie beyond a quantile before it is
// reported: with fewer, the figure is a property of two or three requests,
// not of the system.
const minTailSamples = 10

var errTooFewSamples = errors.New("too few samples beyond the quantile")

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantileSorted interpolates the q-quantile of an ascending, non-empty
// slice the way statistics.quantiles(method="inclusive") does.
func quantileSorted(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// percentile returns the q-quantile (0 < q < 1) of xs, refusing it when
// fewer than minTailSamples samples lie beyond it on the short side — for
// q = 0.95 that means at least 200 samples, for the median at least 20.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, errors.New("quantile outside (0, 1)")
	}
	tail := math.Min(q, 1-q) * float64(len(xs))
	if tail < minTailSamples {
		return 0, errTooFewSamples
	}
	return quantileSorted(sorted(xs), q), nil
}

// median returns the middle value of xs (mean of the two middle values for
// an even count) and 0 for an empty slice. Unlike percentile it takes any
// sample count: it aggregates per-slice figures, which are already medians
// or percentiles of many requests.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantileSorted(sorted(xs), 0.5)
}

// iqr returns the distance between the first and third quartile of xs as
// Python's statistics.quantiles(xs, n=4) gives them (the exclusive method,
// which is what the benchmark contract uses), and 0 below two values.
func iqr(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := sorted(xs)
	at := func(q float64) float64 {
		pos := q*float64(n+1) - 1
		lo := int(math.Floor(pos))
		if lo < 0 {
			lo = 0
		}
		if lo > n-2 {
			lo = n - 2
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.75) - at(0.25)
}

// relSpread is iqr over |median|: the run-to-run noise gauge the contract
// compares against a metric's bound. 0 when the median is 0.
func relSpread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return iqr(xs) / math.Abs(m)
}
