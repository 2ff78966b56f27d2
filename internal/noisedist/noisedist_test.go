package noisedist

import (
	"math"
	"slices"
	"sort"
	"testing"

	"shredder/internal/tensor"
)

// Fit is FitMixture over the single finite tensor a test has just built.
func Fit(t *tensor.Tensor, k Kind) *Fitted {
	f, err := FitMixture([]*tensor.Tensor{t}, k)
	if err != nil {
		panic(err)
	}
	return f
}

// sample draws one fresh tensor of f's shape from a new RNG.
func sample(f *Fitted, seed int64) *tensor.Tensor {
	out := tensor.New(f.Shape...)
	f.SampleInto(out, tensor.NewRNG(seed))
	return out
}

func TestParseKind(t *testing.T) {
	for s, want := range map[string]Kind{
		"": Laplace, "laplace": Laplace,
		"gaussian": Gaussian, "normal": Gaussian, "norm": Gaussian, "gauss": Gaussian,
	} {
		got, err := ParseKind(s)
		if err != nil || got != want {
			t.Fatalf("ParseKind(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseKind("cauchy"); err == nil {
		t.Fatal("ParseKind should reject unknown kinds")
	}
	if Laplace.String() != "laplace" || Gaussian.String() != "gaussian" {
		t.Fatal("Kind.String not parse-stable")
	}
}

// The MLE fits must recover the parameters of large synthetic samples.
func TestFitValuesRecoversParameters(t *testing.T) {
	rng := tensor.NewRNG(1)
	n := 20000
	lap := make([]float64, n)
	gau := make([]float64, n)
	for i := range lap {
		lap[i] = rng.Laplace(1.5, 2.0)
		gau[i] = rng.Normal(-0.5, 3.0)
	}
	cl := FitValues(lap, Laplace)
	if math.Abs(cl.Loc-1.5) > 0.1 || math.Abs(cl.Scale-2.0) > 0.1 {
		t.Fatalf("Laplace fit (%.3f, %.3f), want (1.5, 2.0)", cl.Loc, cl.Scale)
	}
	cg := FitValues(gau, Gaussian)
	if math.Abs(cg.Loc+0.5) > 0.1 || math.Abs(cg.Scale-3.0) > 0.1 {
		t.Fatalf("Gaussian fit (%.3f, %.3f), want (-0.5, 3.0)", cg.Loc, cg.Scale)
	}
	if got := FitValues(nil, Laplace); got != (Component{}) {
		t.Fatalf("empty fit = %+v", got)
	}
}

func TestFitValuesExact(t *testing.T) {
	vals := []float64{-2, 0, 1, 3}
	cl := FitValues(vals, Laplace)
	if cl.Loc != 0.5 { // even length: mean of middle two
		t.Fatalf("Laplace loc = %v, want 0.5", cl.Loc)
	}
	wantScale := (2.5 + 0.5 + 0.5 + 2.5) / 4
	if math.Abs(cl.Scale-wantScale) > 1e-12 {
		t.Fatalf("Laplace scale = %v, want %v", cl.Scale, wantScale)
	}
	cg := FitValues(vals, Gaussian)
	if cg.Loc != 0.5 {
		t.Fatalf("Gaussian loc = %v, want 0.5", cg.Loc)
	}
}

// Sampled noise must be rank-identical to the trained tensor: the sampled
// value at the position of the k-th smallest trained value is itself the
// k-th smallest sampled value.
func TestSamplePreservesSpatialOrdering(t *testing.T) {
	rng := tensor.NewRNG(7)
	trained := tensor.New(4, 5)
	rng.FillLaplace(trained, 0, 3)
	f := Fit(trained, Laplace)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	s := sample(f, 11)
	if !tensor.ShapeEq(s.Shape(), trained.Shape()) {
		t.Fatalf("sample shape %v", s.Shape())
	}
	tr, sa := trained.Data(), s.Data()
	for i := range tr {
		for j := range tr {
			if (tr[i] < tr[j]) != (sa[i] < sa[j]) && tr[i] != tr[j] {
				t.Fatalf("ordering broken at (%d,%d): trained (%v,%v), sampled (%v,%v)",
					i, j, tr[i], tr[j], sa[i], sa[j])
			}
		}
	}
	// The sample must be fresh noise, not a replay.
	if tensor.Equal(s, trained) {
		t.Fatal("sample replayed the trained tensor")
	}
}

// A fixed seed must reproduce the sampled noise byte-for-byte.
func TestSampleDeterministic(t *testing.T) {
	trained := tensor.New(3, 4, 4)
	tensor.NewRNG(3).FillLaplace(trained, 0.5, 2)
	f := Fit(trained, Gaussian)
	a := sample(f, 99)
	b := sample(f, 99)
	if !tensor.Equal(a, b) {
		t.Fatal("same seed produced different samples")
	}
	c := sample(f, 100)
	if tensor.Equal(a, c) {
		t.Fatal("different seeds produced identical samples")
	}
}

func TestFitMixture(t *testing.T) {
	rng := tensor.NewRNG(5)
	var members []*tensor.Tensor
	for i := 0; i < 3; i++ {
		m := tensor.New(6)
		rng.FillLaplace(m, 0, float64(i+1))
		members = append(members, m)
	}
	f, err := FitMixture(members, Laplace)
	if err != nil {
		t.Fatal(err)
	}
	if f.Components() != 3 {
		t.Fatalf("components = %d", f.Components())
	}
	// Every member contributes its own argsort and its own sketch: a
	// shared permutation measurably costs accuracy and privacy.
	if len(f.Orders) != 3 || len(f.Sketches) != 3 {
		t.Fatalf("per-member orders/sketches: %d/%d", len(f.Orders), len(f.Sketches))
	}
	for i, m := range members {
		want, _ := argsort(m.Data())
		for j := range want {
			if want[j] != f.Orders[i][j] {
				t.Fatalf("order %d not the member's own argsort", i)
			}
		}
		// Sketch endpoints are the member's min and max.
		data := append([]float64(nil), m.Data()...)
		sort.Float64s(data)
		sk := f.Sketches[i]
		if float64(sk[0]) != float64(float32(data[0])) ||
			float64(sk[len(sk)-1]) != float64(float32(data[len(data)-1])) {
			t.Fatalf("sketch %d endpoints (%v, %v), member range (%v, %v)",
				i, sk[0], sk[len(sk)-1], data[0], data[len(data)-1])
		}
		for j := 1; j < len(sk); j++ {
			if sk[j] < sk[j-1] {
				t.Fatalf("sketch %d not non-decreasing", i)
			}
		}
	}
	if _, err := FitMixture(nil, Laplace); err == nil {
		t.Fatal("empty mixture should fail")
	}
	if _, err := FitMixture([]*tensor.Tensor{members[0], tensor.New(7)}, Laplace); err == nil {
		t.Fatal("shape mismatch should fail")
	}
	// A diverged training run: no order of NaNs is a ranking.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		diverged := members[1].Clone()
		diverged.Data()[4] = v
		if _, err := FitMixture([]*tensor.Tensor{members[0], diverged}, Laplace); err == nil {
			t.Fatalf("a member holding %v should fail", v)
		}
	}
}

func TestVarianceAnalytic(t *testing.T) {
	f := &Fitted{Kind: Laplace, Comps: []Component{{Loc: 0, Scale: 2}}}
	if got := f.Variance(); math.Abs(got-8) > 1e-12 { // 2b²
		t.Fatalf("Laplace variance = %v, want 8", got)
	}
	g := &Fitted{Kind: Gaussian, Comps: []Component{{Loc: 1, Scale: 3}, {Loc: -1, Scale: 3}}}
	// law of total variance: E[σ²] + Var[µ] = 9 + 1
	if got := g.Variance(); math.Abs(got-10) > 1e-12 {
		t.Fatalf("mixture variance = %v, want 10", got)
	}
	// Monte-Carlo check of the end-to-end sampled variance: reassignment
	// permutes values, so the element distribution (and variance) of the
	// sampled tensor matches the fitted family.
	trained := tensor.New(2048)
	tensor.NewRNG(8).FillLaplace(trained, 0, 2)
	fit := Fit(trained, Laplace)
	s := sample(fit, 9)
	if rel := math.Abs(s.Variance()-fit.Variance()) / fit.Variance(); rel > 0.15 {
		t.Fatalf("sampled variance %v vs analytic %v (rel %v)", s.Variance(), fit.Variance(), rel)
	}
}

func TestValidate(t *testing.T) {
	trained := tensor.New(2, 3)
	tensor.NewRNG(4).FillNormal(trained, 0, 1)
	f := Fit(trained, Gaussian)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *f
	bad.Orders = [][]int32{append([]int32(nil), f.Orders[0]...)}
	bad.Orders[0][0] = bad.Orders[0][1] // duplicate → not a permutation
	if bad.Validate() == nil {
		t.Fatal("duplicate order entries should fail validation")
	}
	bad2 := *f
	bad2.Comps = nil
	if bad2.Validate() == nil {
		t.Fatal("empty mixture should fail validation")
	}
	bad3 := *f
	bad3.Comps = []Component{{Loc: math.NaN(), Scale: 1}}
	bad3.Sketches = f.Sketches[:1]
	bad3.Orders = f.Orders[:1]
	if bad3.Validate() == nil {
		t.Fatal("NaN loc should fail validation")
	}
	bad4 := *f
	bad4.Sketches = [][]float32{append([]float32(nil), f.Sketches[0]...)}
	bad4.Sketches[0][0] = bad4.Sketches[0][len(bad4.Sketches[0])-1] + 1 // decreasing
	if bad4.Validate() == nil {
		t.Fatal("decreasing sketch should fail validation")
	}
	bad5 := *f
	bad5.Sketches = nil
	if bad5.Validate() == nil {
		t.Fatal("missing sketches should fail validation")
	}
	bad6 := *f
	bad6.Kind = Kind(7)
	if bad6.Validate() == nil {
		t.Fatal("unknown kind should fail validation")
	}
	if (*Fitted)(nil).Validate() == nil {
		t.Fatal("nil fitted should fail validation")
	}
}

func TestMemoryBytes(t *testing.T) {
	trained := tensor.New(10)
	tensor.NewRNG(2).FillNormal(trained, 0, 1)
	f := Fit(trained, Laplace)
	// order 4·10 + sketch 4·sketchKnots(10) + params 16
	if got := f.MemoryBytes(); got != 4*10+4*sketchKnots(10)+16 {
		t.Fatalf("MemoryBytes = %d", got)
	}
	// The knot budget keeps every fitted member strictly below the 8
	// bytes/element a stored member costs, for any tensor over 8 elems.
	for _, n := range []int{9, 10, 16, 120, 1000, 100000} {
		if fitted := 4*n + 4*sketchKnots(n) + 16; fitted >= 8*n {
			t.Fatalf("n=%d: fitted member %dB >= stored %dB", n, fitted, 8*n)
		}
	}
}

func TestSampleIntoWrongSizePanics(t *testing.T) {
	trained := tensor.New(4)
	tensor.NewRNG(2).FillNormal(trained, 0, 1)
	f := Fit(trained, Laplace)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.SampleInto(tensor.New(5), tensor.NewRNG(1))
}

// threeSortFit is FitMixture's per-member work as it was before the fit
// derived everything from one argsort: sort.Float64s for the median, again
// for the sketch, and a reflection-driven sort.SliceStable for the order.
// Kept as the oracle the one-sort fit is held to, field by field.
func threeSortFit(vals []float64, k Kind, knots int) (Component, []float32, []int32) {
	var comp Component
	switch k {
	case Gaussian:
		var sum float64
		for _, v := range vals {
			sum += v
		}
		mean := sum / float64(len(vals))
		var sq float64
		for _, v := range vals {
			d := v - mean
			sq += d * d
		}
		comp = Component{Loc: mean, Scale: math.Sqrt(sq / float64(len(vals)))}
	default:
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		med := median(sorted)
		var abs float64
		for _, v := range vals {
			abs += math.Abs(v - med)
		}
		comp = Component{Loc: med, Scale: abs / float64(len(vals))}
	}

	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	sketch := make([]float32, knots)
	for j := 0; j < knots; j++ {
		x := float64(j) * float64(len(v)-1) / float64(knots-1)
		i := int(x)
		if i >= len(v)-1 {
			sketch[j] = float32(v[len(v)-1])
			continue
		}
		frac := x - float64(i)
		sketch[j] = float32(v[i] + frac*(v[i+1]-v[i]))
	}

	order := make([]int32, len(vals))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool { return vals[order[a]] < vals[order[b]] })
	return comp, sketch, order
}

func TestFitMixtureMatchesThreeSortReference(t *testing.T) {
	rng := tensor.NewRNG(17)
	laplace := func(shape ...int) *tensor.Tensor { return rng.FillLaplace(tensor.New(shape...), 0.25, 3) }
	tied := laplace(8, 16, 16)
	for i, v := range tied.Data() {
		tied.Data()[i] = math.Round(v) + 0 // a few dozen distinct values over 2048 elements; +0 folds −0 into 0
	}
	cases := map[string][]*tensor.Tensor{
		"trained-like": {laplace(8, 16, 16), laplace(8, 16, 16), laplace(8, 16, 16)},
		"lenet cut":    {laplace(120), laplace(120)},
		"even length":  {laplace(6)},
		"ties":         {tied, laplace(8, 16, 16)},
		"one element":  {tensor.From([]float64{-1.5}, 1), tensor.From([]float64{2}, 1)},
		"all equal":    {tensor.New(3, 3).Fill(0.75), tensor.New(3, 3).Fill(-2)},
	}
	for name, members := range cases {
		for _, k := range []Kind{Laplace, Gaussian} {
			f, err := FitMixture(members, k)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, k, err)
			}
			knots := sketchKnots(members[0].Len())
			for i, m := range members {
				comp, sketch, order := threeSortFit(m.Data(), k, knots)
				if math.Float64bits(f.Comps[i].Loc) != math.Float64bits(comp.Loc) ||
					math.Float64bits(f.Comps[i].Scale) != math.Float64bits(comp.Scale) {
					t.Errorf("%s/%v member %d: component %+v, reference %+v", name, k, i, f.Comps[i], comp)
				}
				if !slices.Equal(f.Orders[i], order) {
					t.Errorf("%s/%v member %d: order differs from the stable reference argsort", name, k, i)
				}
				if len(f.Sketches[i]) != len(sketch) {
					t.Fatalf("%s/%v member %d: %d knots, reference %d", name, k, i, len(f.Sketches[i]), len(sketch))
				}
				for j := range sketch {
					if math.Float32bits(f.Sketches[i][j]) != math.Float32bits(sketch[j]) {
						t.Errorf("%s/%v member %d: knot %d = %v, reference %v", name, k, i, j, f.Sketches[i][j], sketch[j])
						break
					}
				}
			}
		}
	}
}

// comparisonArgsort is argsort as it was before the radix sort: (value,
// index) pairs under slices.SortFunc. Ordering the pairs is a total order,
// so the unstable sort yields the stable result. Kept as the radix sort's
// oracle.
func comparisonArgsort(vals []float64) (order []int32, sorted []float64) {
	type entry struct {
		v float64
		i int32
	}
	entries := make([]entry, len(vals))
	for i, v := range vals {
		entries[i] = entry{v, int32(i)}
	}
	slices.SortFunc(entries, func(a, b entry) int {
		if a.v < b.v {
			return -1
		}
		if a.v > b.v {
			return 1
		}
		return int(a.i - b.i)
	})
	order, sorted = make([]int32, len(vals)), make([]float64, len(vals))
	for j, e := range entries {
		order[j], sorted[j] = e.i, e.v
	}
	return order, sorted
}

// The radix argsort gives the comparison sort's order, and the values in
// that order bit for bit, at every size the fit meets and on every input
// that could tell the two apart.
func TestArgsortEqualsComparisonSort(t *testing.T) {
	rng := tensor.NewRNG(29)
	shapes := map[string]func(n int) []float64{
		"laplace":  func(n int) []float64 { return rng.FillLaplace(tensor.New(n), 0.25, 3).Data() },
		"gaussian": func(n int) []float64 { return rng.FillNormal(tensor.New(n), -1, 0.5).Data() },
		"all equal": func(n int) []float64 {
			return tensor.New(n).Fill(-2.5).Data()
		},
		"runs of ties": func(n int) []float64 {
			v := rng.FillLaplace(tensor.New(n), 0, 3).Data()
			for i := range v {
				v[i] = math.Round(v[i]) // a few dozen distinct values, −0 among them
			}
			return v
		},
		"signed zeros": func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				switch rng.Intn(4) {
				case 0:
					v[i] = math.Copysign(0, -1)
				case 1:
					v[i] = rng.Float64() - 0.5
				}
			}
			return v
		},
		"denormals and extremes": func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = []float64{
					math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1060, -0x3p-1060,
					math.MaxFloat64, -math.MaxFloat64, 0x1p-1022, -0x1p1023, 1, 0,
				}[rng.Intn(10)]
			}
			return v
		},
		"sorted": func(n int) []float64 {
			v := rng.FillNormal(tensor.New(n), 0, 1).Data()
			slices.Sort(v)
			return v
		},
		"reversed": func(n int) []float64 {
			v := rng.FillNormal(tensor.New(n), 0, 1).Data()
			slices.Sort(v)
			slices.Reverse(v)
			return v
		},
	}
	for name, fill := range shapes {
		for _, n := range []int{0, 1, 2, 120, 4704, 16384} {
			vals := fill(n)
			order, sorted := argsort(vals)
			wantOrder, wantSorted := comparisonArgsort(vals)
			if !slices.Equal(order, wantOrder) {
				t.Errorf("%s, n=%d: order differs from the comparison sort's", name, n)
			}
			for j := range wantSorted {
				if math.Float64bits(sorted[j]) != math.Float64bits(wantSorted[j]) {
					t.Errorf("%s, n=%d: sorted[%d] = %v, the comparison sort's %v", name, n, j, sorted[j], wantSorted[j])
					break
				}
			}
		}
	}
}

// BenchmarkFitMixture times the refit a fitted-mode start pays per stored
// collection, at the two cut sizes the benchmark's workloads load.
func BenchmarkFitMixture(b *testing.B) {
	for _, c := range []struct {
		name       string
		members, n int
	}{{"2x16384", 2, 16384}, {"4x4704", 4, 4704}} {
		rng := tensor.NewRNG(31)
		members := make([]*tensor.Tensor, c.members)
		for i := range members {
			members[i] = rng.FillLaplace(tensor.New(c.n), 0, 2.5)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := FitMixture(members, Laplace); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
