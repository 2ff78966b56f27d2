package tensor

import (
	"math"
	"testing"

	"shredder/internal/race"
)

// toDense32 converts a float64 tensor to a float32 buffer for kernel
// parity tests.
func toDense32(t *Tensor) *Tensor32 { return ToDense[float32](t) }

// maxAbsDiff32 returns max |a_i - b_i| between a float32 buffer and a
// float64 reference.
func maxAbsDiff32(a *Tensor32, b *Tensor) float64 {
	m := 0.0
	bd := b.Data()
	for i, v := range a.Data() {
		if d := math.Abs(float64(v) - bd[i]); d > m {
			m = d
		}
	}
	return m
}

func TestKernelFloat64DelegationExact(t *testing.T) {
	// The float64 Tensor API routes through the generic kernels; the
	// kernel at float64 must agree bitwise with it.
	rng := NewRNG(11)
	a := rng.FillNormal(New(9, 13), 0, 1)
	b := rng.FillNormal(New(7, 13), 0, 1)
	want := MatMulT2(a, b)
	got := New(9, 7)
	matmulT2Kernel(got.Data(), a.Data(), b.Data(), 9, 13, 7)
	if !Equal(got, want) {
		t.Fatal("matmulT2Kernel[float64] diverges from MatMulT2")
	}
}

func TestMatMulT2KernelFloat32Parity(t *testing.T) {
	rng := NewRNG(12)
	a := rng.FillNormal(New(8, 40), 0, 1)
	b := rng.FillNormal(New(12, 40), 0, 1)
	want := MatMulT2(a, b)
	got := NewDense[float32](8, 12)
	matmulT2Kernel(got.Data(), toDense32(a).Data(), toDense32(b).Data(), 8, 40, 12)
	// 40-term dot products of unit-normal values: float32 error well under
	// 1e-4 in absolute terms at these magnitudes.
	if d := maxAbsDiff32(got, want); d > 1e-4 {
		t.Fatalf("float32 matmul deviates by %g from float64", d)
	}
}

// TestBlockedMatMulT2Bitwise: the register-blocked kernel equals the legacy
// kernel bit for bit at both dtypes — its four accumulators belong to four
// different outputs and each sums over p in the legacy order — over shapes
// that exercise the four-wide body, the tail columns, the single-row serial
// path, and the parallel path.
func TestBlockedMatMulT2Bitwise(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 7, 3},    // all tail, serial
		{5, 40, 8},   // exact four-wide blocks
		{6, 33, 13},  // blocks plus tail
		{64, 50, 70}, // crosses parallelThreshold
	}
	for _, s := range shapes {
		rng := NewRNG(int64(s.m + s.k + s.n))
		a := rng.FillNormal(New(s.m, s.k), 0, 1)
		b := rng.FillNormal(New(s.n, s.k), 0, 1)

		want64 := MatMulT2(a, b)
		got64 := NewDense[float64](s.m, s.n)
		MatMulT2BlockedDense(got64, ToDense[float64](a), ToDense[float64](b))
		if !Equal(From(got64.Data(), s.m, s.n), want64) {
			t.Fatalf("%+v: blocked f64 kernel differs from the legacy kernel", s)
		}

		a32, b32 := toDense32(a), toDense32(b)
		want32, got32 := NewDense[float32](s.m, s.n), NewDense[float32](s.m, s.n)
		matmulT2Kernel(want32.Data(), a32.Data(), b32.Data(), s.m, s.k, s.n)
		MatMulT2BlockedDense(got32, a32, b32)
		for i, v := range got32.Data() {
			if v != want32.Data()[i] {
				t.Fatalf("%+v: blocked f32 elem %d: %v vs legacy %v", s, i, v, want32.Data()[i])
			}
		}
	}
}

// TestSerialKernelsDoNotAllocate: below the fan-out threshold no kernel
// builds a closure, and a warm scratch Get/Put pair boxes nothing.
func TestSerialKernelsDoNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := NewRNG(17)
	a := rng.FillNormal(New(6, 9), 0, 1)
	b := rng.FillNormal(New(9, 5), 0, 1)
	bt := rng.FillNormal(New(5, 9), 0, 1)
	at := rng.FillNormal(New(9, 6), 0, 1)
	dst := New(6, 5)
	for name, fn := range map[string]func(){
		"matmul":        func() { matmulKernel(dst.Data(), a.Data(), b.Data(), 6, 9, 5) },
		"matmulT1":      func() { matmulT1Kernel(dst.Data(), at.Data(), b.Data(), 9, 6, 5) },
		"matmulT2":      func() { MatMulT2Into(dst, a, bt) },
		"matmulT2Block": func() { matmulT2BlockedKernel(dst.Data(), a.Data(), bt.Data(), 6, 9, 5) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %v times per call on the serial path", name, n)
		}
	}
}

// TestParallelKernelsAllocateOnlyTheirClosure is the same pin above the
// fan-out threshold: the chunking closure handed to ParallelChunks is the one
// allocation of a parallel matmul.
func TestParallelKernelsAllocateOnlyTheirClosure(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const m, k, n = 64, 9, 300 // m·n is above parallelThreshold
	rng := NewRNG(18)
	a := rng.FillNormal(New(m, k), 0, 1)
	b := rng.FillNormal(New(k, n), 0, 1)
	bt := rng.FillNormal(New(n, k), 0, 1)
	at := rng.FillNormal(New(k, m), 0, 1)
	dst := New(m, n)
	for name, fn := range map[string]func(){
		"matmul":        func() { matmulKernel(dst.Data(), a.Data(), b.Data(), m, k, n) },
		"matmulT1":      func() { matmulT1Kernel(dst.Data(), at.Data(), b.Data(), k, m, n) },
		"matmulT2":      func() { MatMulT2Into(dst, a, bt) },
		"matmulT2Block": func() { matmulT2BlockedKernel(dst.Data(), a.Data(), bt.Data(), m, k, n) },
	} {
		fn()
		if n := testing.AllocsPerRun(100, fn); n > 1 {
			t.Errorf("%s allocates %v times per call on the parallel path", name, n)
		}
	}
}

func TestMatMulKernelFloat32Parity(t *testing.T) {
	rng := NewRNG(13)
	a := rng.FillNormal(New(6, 17), 0, 1)
	b := rng.FillNormal(New(17, 9), 0, 1)
	want := MatMul(a, b)
	got := NewDense[float32](6, 9)
	matmulKernel(got.Data(), toDense32(a).Data(), toDense32(b).Data(), 6, 17, 9)
	if d := maxAbsDiff32(got, want); d > 1e-4 {
		t.Fatalf("float32 matmul deviates by %g from float64", d)
	}
}

func TestMatMulKernelParallelPathFloat32(t *testing.T) {
	// Large enough to cross parallelThreshold: exercises ParallelChunks under
	// the generic instantiation.
	rng := NewRNG(14)
	m, k, n := 64, 33, 300
	a := rng.FillNormal(New(m, k), 0, 1)
	b := rng.FillNormal(New(k, n), 0, 1)
	want := MatMul(a, b)
	got := NewDense[float32](m, n)
	matmulKernel(got.Data(), toDense32(a).Data(), toDense32(b).Data(), m, k, n)
	if d := maxAbsDiff32(got, want); d > 1e-3 {
		t.Fatalf("parallel float32 matmul deviates by %g", d)
	}
}

func TestIm2ColKernelFloat32Parity(t *testing.T) {
	rng := NewRNG(15)
	img := rng.FillNormal(New(3, 6, 6), 0, 1)
	g := ConvGeom{InC: 3, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 2, Pad: 1}
	want := im2col(img, g)
	cols := NewDense[float32](g.OutH()*g.OutW(), 3*3*3)
	im2colKernel(cols.Data(), toDense32(img).Data(), g)
	// im2col only moves values (and writes zeros); the only error is the
	// one float64→float32 conversion of the input.
	wd := want.Data()
	for i, v := range cols.Data() {
		if float64(float32(wd[i])) != float64(v) {
			t.Fatalf("im2col float32 elem %d: got %v want %v", i, v, float32(wd[i]))
		}
	}
}

func TestDenseTensorRoundTrip(t *testing.T) {
	rng := NewRNG(16)
	src := rng.FillNormal(New(4, 5), 0, 3)
	d32 := ToDense[float32](src)
	if !ShapeEq(d32.Shape(), src.Shape()) {
		t.Fatalf("converted shape %v vs %v", d32.Shape(), src.Shape())
	}
	for i, v := range d32.Data() {
		if v != float32(src.Data()[i]) {
			t.Fatalf("elem %d not the float32 rounding of the source", i)
		}
	}
	// At float64 the conversion still copies: the result never aliases.
	d64 := ToDense[float64](src)
	d64.Data()[0] = 123
	if src.Data()[0] == 123 {
		t.Fatal("ToDense[float64] shares the source's storage")
	}
}
