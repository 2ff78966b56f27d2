package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

// naiveMatMul is the reference implementation used to validate the
// optimized kernels.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

func TestMatMulSmallKnown(t *testing.T) {
	a := From([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := From([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(a, b)
	want := From([]float64{58, 64, 139, 154}, 2, 2)
	if !Equal(got, want) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := NewRNG(1)
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 2}, {7, 4, 9}, {16, 16, 16}, {33, 17, 29}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := rng.FillNormal(New(m, k), 0, 1)
		b := rng.FillNormal(New(k, n), 0, 1)
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		if !AllClose(got, want, 1e-9) {
			t.Fatalf("MatMul mismatch at %dx%dx%d", m, k, n)
		}
	}
}

func TestMatMulParallelPathMatchesNaive(t *testing.T) {
	// Large enough to cross parallelThreshold.
	rng := NewRNG(2)
	m, k, n := 160, 40, 128
	a := rng.FillNormal(New(m, k), 0, 1)
	b := rng.FillNormal(New(k, n), 0, 1)
	if !AllClose(MatMul(a, b), naiveMatMul(a, b), 1e-9) {
		t.Fatal("parallel MatMul mismatch")
	}
}

func TestMatMulDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestMatMulT1MatchesTransposed(t *testing.T) {
	rng := NewRNG(4)
	a := rng.FillNormal(New(7, 3), 0, 1) // [k,m]
	b := rng.FillNormal(New(7, 5), 0, 1) // [k,n]
	got := MatMulT1(a, b)
	want := MatMul(transpose(a), b)
	if !AllClose(got, want, 1e-9) {
		t.Fatal("MatMulT1 != transpose(a)·b")
	}
}

func TestMatMulT2MatchesTransposed(t *testing.T) {
	rng := NewRNG(5)
	a := rng.FillNormal(New(4, 6), 0, 1) // [m,k]
	b := rng.FillNormal(New(9, 6), 0, 1) // [n,k]
	got := MatMulT2(a, b)
	want := MatMul(a, transpose(b))
	if !AllClose(got, want, 1e-9) {
		t.Fatal("MatMulT2 != a·transpose(b)")
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ for random small matrices.
func TestMatMulTransposeProperty(t *testing.T) {
	rng := NewRNG(7)
	f := func(seed int64) bool {
		r := NewRNG(seed)
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := r.FillNormal(New(m, k), 0, 1)
		b := r.FillNormal(New(k, n), 0, 1)
		lhs := transpose(MatMul(a, b))
		rhs := MatMul(transpose(b), transpose(a))
		return AllClose(lhs, rhs, 1e-9)
	}
	cfg := &quick.Config{MaxCount: 30, Values: nil}
	if err := quick.Check(func() bool { return f(rng.Int63()) }, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over addition: A·(B+C) = A·B + A·C.
func TestMatMulDistributesOverAdd(t *testing.T) {
	rng := NewRNG(8)
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := rng.FillNormal(New(m, k), 0, 1)
		b := rng.FillNormal(New(k, n), 0, 1)
		c := rng.FillNormal(New(k, n), 0, 1)
		lhs := MatMul(a, Add(b, c))
		rhs := Add(MatMul(a, b), MatMul(a, c))
		if !AllClose(lhs, rhs, 1e-9) {
			t.Fatalf("distributivity failed at trial %d", trial)
		}
	}
}

func TestParallelForCoversAll(t *testing.T) {
	n := 1000
	hits := make([]int32, n)
	ParallelFor(n, func(i int) { hits[i]++ })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestRNGLaplaceMoments(t *testing.T) {
	rng := NewRNG(42)
	const n = 200000
	mu, b := 0.5, 2.0
	s := New(n)
	rng.FillLaplace(s, mu, b)
	if m := s.Mean(); math.Abs(m-mu) > 0.03 {
		t.Fatalf("Laplace mean = %v, want ~%v", m, mu)
	}
	// Var(Laplace) = 2b²
	if v := s.Variance(); math.Abs(v-2*b*b) > 0.25 {
		t.Fatalf("Laplace variance = %v, want ~%v", v, 2*b*b)
	}
}

func TestRNGNormalMoments(t *testing.T) {
	rng := NewRNG(43)
	const n = 100000
	s := rng.FillNormal(New(n), -1, 3)
	if m := s.Mean(); math.Abs(m+1) > 0.05 {
		t.Fatalf("Normal mean = %v, want ~-1", m)
	}
	if v := s.Variance(); math.Abs(v-9) > 0.3 {
		t.Fatalf("Normal variance = %v, want ~9", v)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(7).FillLaplace(New(64), 0, 1)
	b := NewRNG(7).FillLaplace(New(64), 0, 1)
	if !Equal(a, b) {
		t.Fatal("same seed must produce identical samples")
	}
	c := NewRNG(8).FillLaplace(New(64), 0, 1)
	if Equal(a, c) {
		t.Fatal("different seeds should differ")
	}
}

// transpose returns the transpose of a rank-2 tensor.
func transpose(a *Tensor) *Tensor {
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out
}

func TestMatMulT2IntoMatchesMatMulT2(t *testing.T) {
	rng := NewRNG(4)
	a := rng.FillNormal(New(7, 11), 0, 1)
	b := rng.FillNormal(New(5, 11), 0, 1)
	want := MatMulT2(a, b)
	dst := New(7, 5)
	dst.Fill(-3)
	MatMulT2Into(dst, a, b)
	if !AllClose(dst, want, 0) {
		t.Fatal("MatMulT2Into diverges from MatMulT2")
	}
}
