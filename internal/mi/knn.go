package mi

import (
	"fmt"
	"math"
	"sort"

	"shredder/internal/tensor"
)

// Samples is a set of N points in D dimensions, row-major.
type Samples struct {
	N, D int
	X    []float64 // len N*D
}

// NewSamples wraps a flat buffer as a sample matrix.
func NewSamples(x []float64, n, d int) Samples {
	if len(x) != n*d {
		panic(fmt.Sprintf("mi: sample buffer has %d values, want %d×%d", len(x), n, d))
	}
	return Samples{N: n, D: d, X: x}
}

// FromTensor converts a batched tensor [N, ...] into samples by flattening
// each item.
func FromTensor(t *tensor.Tensor) Samples {
	n := t.Dim(0)
	d := t.Len() / n
	return NewSamples(t.Data(), n, d)
}

// Row returns sample i as a slice view.
func (s Samples) Row(i int) []float64 { return s.X[i*s.D : (i+1)*s.D] }

// Concat returns the joint sample set [a | b] of dimension a.D + b.D.
// Both sets must have the same N; row i of the result is a_i ++ b_i.
func Concat(a, b Samples) Samples {
	if a.N != b.N {
		panic(fmt.Sprintf("mi: Concat sample count mismatch %d vs %d", a.N, b.N))
	}
	d := a.D + b.D
	x := make([]float64, a.N*d)
	for i := 0; i < a.N; i++ {
		copy(x[i*d:], a.Row(i))
		copy(x[i*d+a.D:], b.Row(i))
	}
	return NewSamples(x, a.N, d)
}

// euclidean2 returns the squared Euclidean distance between rows.
func euclidean2(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// kthNNDistances returns, for every point, its distance to the k-th nearest
// other point under the Euclidean norm. Brute force O(N²D), parallel over
// query points — exact, which matters more than speed at the sample counts
// the experiments use.
func kthNNDistances(s Samples, k int) []float64 {
	if k <= 0 || k >= s.N {
		panic(fmt.Sprintf("mi: k=%d out of range for %d samples", k, s.N))
	}
	out := make([]float64, s.N)
	tensor.ParallelFor(s.N, func(i int) {
		ri := s.Row(i)
		// Maintain the k smallest squared distances in a simple insertion
		// buffer — k is tiny (≤ 10).
		best := make([]float64, k)
		for j := range best {
			best[j] = math.Inf(1)
		}
		for j := 0; j < s.N; j++ {
			if j == i {
				continue
			}
			d2 := euclidean2(ri, s.Row(j))
			if d2 < best[k-1] {
				p := sort.SearchFloat64s(best, d2)
				copy(best[p+1:], best[p:k-1])
				best[p] = d2
			}
		}
		out[i] = math.Sqrt(best[k-1])
	})
	return out
}
