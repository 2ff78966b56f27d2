package tensor

import (
	"math"
	"testing"
)

func TestNewShapeAndLen(t *testing.T) {
	tt := New(2, 3, 4)
	if tt.Len() != 24 {
		t.Fatalf("Len = %d, want 24", tt.Len())
	}
	if tt.Rank() != 3 {
		t.Fatalf("Rank = %d, want 3", tt.Rank())
	}
	if !ShapeEq(tt.Shape(), []int{2, 3, 4}) {
		t.Fatalf("Shape = %v", tt.Shape())
	}
	for _, v := range tt.Data() {
		if v != 0 {
			t.Fatal("New tensor not zero-filled")
		}
	}
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	New(2, -1)
}

func TestFromChecksVolume(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	From([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	tt := New(3, 4)
	tt.Set(7.5, 2, 1)
	if got := tt.At(2, 1); got != 7.5 {
		t.Fatalf("At(2,1) = %v, want 7.5", got)
	}
	// row-major: offset = 2*4 + 1 = 9
	if tt.Data()[9] != 7.5 {
		t.Fatalf("flat layout wrong: %v", tt.Data())
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	tt := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	tt.At(2, 0)
}

func TestReshapeSharesStorage(t *testing.T) {
	a := From([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.Set(99, 0, 0)
	if a.At(0, 0) != 99 {
		t.Fatal("Reshape must share storage")
	}
}

func TestReshapeInfer(t *testing.T) {
	a := New(4, 6)
	b := a.Reshape(2, -1)
	if !ShapeEq(b.Shape(), []int{2, 12}) {
		t.Fatalf("inferred shape = %v, want [2 12]", b.Shape())
	}
}

func TestReshapeBadVolumePanics(t *testing.T) {
	a := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad reshape")
		}
	}()
	a.Reshape(4, 2)
}

func TestCloneIsDeep(t *testing.T) {
	a := From([]float64{1, 2}, 2)
	b := a.Clone()
	b.Data()[0] = 100
	if a.Data()[0] != 1 {
		t.Fatal("Clone must be deep")
	}
}

func TestSliceAndRow(t *testing.T) {
	a := From([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	s := a.Slice(1)
	if !ShapeEq(s.Shape(), []int{3}) || s.At(0) != 4 {
		t.Fatalf("Slice(1) = %v", s)
	}
	// A rank-2 tensor's slice is its row.
	r := a.Slice(0)
	if !ShapeEq(r.Shape(), []int{3}) || r.At(2) != 3 {
		t.Fatalf("Slice(0) = %v", r)
	}
	// shared storage
	s.Set(40, 0)
	if a.At(1, 0) != 40 {
		t.Fatal("Slice must share storage")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := From([]float64{1, 2, 3}, 3)
	b := From([]float64{4, 5, 6}, 3)
	if got := Add(a, b); !Equal(got, From([]float64{5, 7, 9}, 3)) {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a); !Equal(got, From([]float64{3, 3, 3}, 3)) {
		t.Fatalf("Sub = %v", got)
	}
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestInPlaceOps(t *testing.T) {
	a := From([]float64{1, 2, 3}, 3)
	a.AddInPlace(From([]float64{1, 1, 1}, 3))
	a.Scale(2)
	a.Shift(-1)
	want := From([]float64{3, 5, 7}, 3)
	if !Equal(a, want) {
		t.Fatalf("chained in-place ops = %v, want %v", a, want)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for shape mismatch")
		}
	}()
	Add(New(2), New(3))
}

func TestReductions(t *testing.T) {
	a := From([]float64{-1, 2, -3, 4}, 4)
	if a.Sum() != 2 {
		t.Fatalf("Sum = %v", a.Sum())
	}
	if a.AbsSum() != 10 {
		t.Fatalf("AbsSum = %v", a.AbsSum())
	}
	if a.SqSum() != 30 {
		t.Fatalf("SqSum = %v", a.SqSum())
	}
	if a.Mean() != 0.5 {
		t.Fatalf("Mean = %v", a.Mean())
	}
	if a.Max() != 4 || a.Min() != -3 {
		t.Fatalf("Max/Min = %v/%v", a.Max(), a.Min())
	}
	if a.Argmax() != 3 {
		t.Fatalf("Argmax = %d", a.Argmax())
	}
	if a.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", a.MaxAbs())
	}
}

func TestVarianceStd(t *testing.T) {
	a := From([]float64{2, 4, 4, 4, 5, 5, 7, 9}, 8)
	if math.Abs(a.Variance()-4) > 1e-12 {
		t.Fatalf("Variance = %v, want 4", a.Variance())
	}
	if math.Abs(a.Std()-2) > 1e-12 {
		t.Fatalf("Std = %v, want 2", a.Std())
	}
}

func TestAllFinite(t *testing.T) {
	a := From([]float64{-2, 0, 3}, 3)
	if !a.AllFinite() {
		t.Fatal("finite tensor reported non-finite")
	}
	a.Data()[0] = math.NaN()
	if a.AllFinite() {
		t.Fatal("NaN not detected")
	}
	a.Data()[0] = math.Inf(1)
	if a.AllFinite() {
		t.Fatal("Inf not detected")
	}
}

func TestApply(t *testing.T) {
	a := From([]float64{1, 4, 9}, 3)
	a.Apply(func(x float64) float64 { return -x })
	if !Equal(a, From([]float64{-1, -4, -9}, 3)) {
		t.Fatalf("Apply = %v", a)
	}
}

func TestAllCloseTolerance(t *testing.T) {
	a := From([]float64{1, 2}, 2)
	b := From([]float64{1.0005, 2}, 2)
	if !AllClose(a, b, 1e-3) {
		t.Fatal("AllClose should accept within tolerance")
	}
	if AllClose(a, b, 1e-6) {
		t.Fatal("AllClose should reject beyond tolerance")
	}
	if AllClose(a, New(3), 1) {
		t.Fatal("AllClose should reject different shapes")
	}
}
