// Package noisedist turns a trained Shredder noise collection into noise
// *distributions*: per-member empirical quantile sketches plus each
// member's spatial ordering, from which fresh noise is sampled per query.
// A sample picks one member's distribution, draws stratified uniforms
// through the inverse CDF (the sketch), and scatters the values through
// that member's argsort — so sampled noise matches the trained tensor
// element-for-element in rank and value profile while every query sees
// noise never stored anywhere.
//
// This is the deployment story of the paper's §2.5 taken literally (a
// collection of noise *distributions*): instead of replaying K stored
// float64 tensors, a node keeps K int32 permutations and K capped
// float32 quantile sketches — strictly smaller per member, approaching
// half the resident bytes as the cut tensor grows — and draws unbounded
// fresh noise. Two designs that store less were measured and
// rejected: parametric (loc, scale) fits lose the trained value profile
// (−12 accuracy points at the default cut), and a single shared
// permutation collapses the noise into a low-dimensional family that
// leaks (mutual information 209 bits vs 67 with per-member orders, and
// −3 accuracy points). The per-member argsort is the irreducible learned
// structure; the parametric (loc, scale) MLE is kept alongside as a
// telemetry summary. All sampling flows through an explicitly seeded
// tensor.RNG, so a fixed seed reproduces the exact noise stream.
package noisedist

import (
	"fmt"
	"math"

	"shredder/internal/tensor"
	"shredder/internal/wire"
)

// Kind selects the parametric family fitted over the trained values.
// The fitted (loc, scale) pairs summarize the mixture for telemetry and
// analytics; sampling itself is empirical (quantile sketches).
type Kind int

const (
	// Laplace fits location = median and scale = mean absolute deviation
	// from the median (the Laplace MLE). It matches the Laplace
	// initialization Shredder trains from, and heavy-ish tails survive
	// training, so it is the default.
	Laplace Kind = iota
	// Gaussian fits location = mean and scale = population standard
	// deviation (the Gaussian MLE).
	Gaussian
)

// String returns the parse-stable name of the kind.
func (k Kind) String() string {
	switch k {
	case Laplace:
		return "laplace"
	case Gaussian:
		return "gaussian"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind maps a flag value to a Kind ("laplace", "gaussian"/"normal").
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "laplace":
		return Laplace, nil
	case "gaussian", "gauss", "normal", "norm":
		return Gaussian, nil
	}
	return 0, fmt.Errorf("noisedist: unknown distribution %q (want laplace or gaussian)", s)
}

// Component is one fitted (location, scale) pair. A Fitted built from a
// K-member collection carries K components — a scale mixture over the
// members — at two float64 each.
type Component struct {
	Loc, Scale float64
}

// Variance returns the analytic variance of the component under the kind.
func (c Component) variance(k Kind) float64 {
	if k == Laplace {
		return 2 * c.Scale * c.Scale
	}
	return c.Scale * c.Scale
}

// component computes the maximum-likelihood Component of kind k over vals,
// given vals in ascending order as well (the Gaussian fit does not read
// sorted). Sums run over vals in its own order.
func component(vals, sorted []float64, k Kind) Component {
	if len(vals) == 0 {
		return Component{}
	}
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
		return Component{Loc: mean, Scale: math.Sqrt(sq / float64(len(vals)))}
	default: // Laplace
		med := median(sorted)
		var abs float64
		for _, v := range vals {
			abs += math.Abs(v - med)
		}
		return Component{Loc: med, Scale: abs / float64(len(vals))}
	}
}

// median of an already-sorted non-empty slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// maxSketchKnots caps the quantile sketch size. Accuracy improves
// monotonically with knots toward the stored-replay ceiling (exact
// quantile replay reproduces stored accuracy), so the cap only binds
// once the sketch is fine enough that the gap is noise; past ~128 knots
// nothing measurable is left.
const maxSketchKnots = 129

// sketchKnots picks the sketch size for an n-element member: as many
// knots as the memory budget allows, capped at maxSketchKnots. Knots
// are float32 (noise quantiles need nowhere near 15 digits), so the
// budget 4n + 4·knots + 16 < 8n (order + sketch + params vs stored
// float64s) solves to knots < n − 4; for n > 8 a fitted member is
// strictly smaller than a stored one. At the default LeNet cut
// (n = 120 → 115 knots) the sketch is nearly the exact per-value
// quantile function.
func sketchKnots(n int) int {
	k := n - 5
	if k > maxSketchKnots {
		k = maxSketchKnots
	}
	if k < 2 {
		k = 2
	}
	return k
}

// sketchOf builds a k-knot quantile sketch of the ascending values v: knot
// j holds the quantile at probability j/(k−1), linearly interpolated. The
// sketch is the inverse CDF sampled at equispaced probabilities,
// non-decreasing by construction.
func sketchOf(v []float64, knots int) []float32 {
	out := make([]float32, knots)
	for k := 0; k < knots; k++ {
		x := float64(k) * float64(len(v)-1) / float64(knots-1)
		i := int(x)
		if i >= len(v)-1 {
			out[k] = float32(v[len(v)-1])
			continue
		}
		frac := x - float64(i)
		out[k] = float32(v[i] + frac*(v[i+1]-v[i]))
	}
	return out
}

// quantile evaluates the sketch's inverse CDF at u ∈ [0, 1) by linear
// interpolation between knots.
func quantile(sketch []float32, u float64) float64 {
	x := u * float64(len(sketch)-1)
	i := int(x)
	if i >= len(sketch)-1 {
		return float64(sketch[len(sketch)-1])
	}
	frac := x - float64(i)
	a, b := float64(sketch[i]), float64(sketch[i+1])
	return a + frac*(b-a)
}

// Fitted is a sampleable noise distribution: one quantile sketch and one
// spatial ordering per trained member, plus parametric (loc, scale)
// summaries of the chosen family. Each Sample draws from one uniformly
// chosen member's distribution, mirroring the stored collection's member
// sampling.
type Fitted struct {
	// Kind is the parametric family of the Comps summaries.
	Kind Kind
	// Shape is the per-sample tensor shape sampling produces.
	Shape []int
	// Comps are the fitted (loc, scale) pairs, one per trained member.
	Comps []Component
	// Sketches[i] is member i's quantile sketch (inverse CDF at
	// equispaced probabilities), the value profile sampling draws from.
	// float32 knots: half the bytes, and quantization error (~1e−7
	// relative) is far below the sketch's own interpolation error.
	Sketches [][]float32
	// Orders[i] is the argsort of member i's trained values: Orders[i][j]
	// is the flat index holding the j-th smallest value. Sampling
	// scatters the j-th smallest fresh sample to Orders[i][j], so sampled
	// noise is rank-identical to the trained member. Orders are stored
	// per member: a single shared permutation was measured to cost both
	// accuracy and privacy (see the package comment).
	Orders [][]int32
}

// FitMixture fits one component per member tensor: its quantile sketch,
// its argsort, and its (loc, scale) MLE summary. The float64 member
// values themselves are not retained — the sketch (fixed size) and the
// int32 order (half the bytes) replace them.
func FitMixture(members []*tensor.Tensor, k Kind) (*Fitted, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("noisedist: fit over zero members")
	}
	shape := members[0].Shape()
	knots := sketchKnots(tensor.Volume(shape))
	f := &Fitted{
		Kind:     k,
		Shape:    append([]int(nil), shape...),
		Comps:    make([]Component, len(members)),
		Sketches: make([][]float32, len(members)),
		Orders:   make([][]int32, len(members)),
	}
	for i, m := range members {
		if m == nil || !tensor.ShapeEq(m.Shape(), shape) {
			return nil, fmt.Errorf("noisedist: member %d shape mismatch", i)
		}
		for _, v := range m.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("noisedist: member %d holds %v, not a finite number", i, v)
			}
		}
	}
	// One sort per member: its argsort is the Orders row, and the values
	// gathered through it are what the median and the sketch read.
	tensor.ParallelFor(len(members), func(i int) {
		vals := members[i].Data()
		order, sorted := argsort(vals)
		f.Comps[i] = component(vals, sorted, k)
		f.Sketches[i] = sketchOf(sorted, knots)
		f.Orders[i] = order
	})
	return f, nil
}

// argsort returns the stable ascending argsort of vals as int32 flat
// indices — equal values keep their index order — and the values in that
// order, sorted[j] = vals[order[j]]. It is a least-significant-digit radix
// sort of the (key, index) pairs on sortKey, eight passes of one byte each:
// every pass is stable, so the result is the stable sort on the key, and the
// key orders finite values as < does. vals must be finite (FitMixture has
// checked).
func argsort(vals []float64) (order []int32, sorted []float64) {
	n := len(vals)
	keys, idx := make([]uint64, n), make([]int32, n)
	keysTo, idxTo := make([]uint64, n), make([]int32, n)
	// All eight histograms in the one pass that computes the keys.
	var count [8][256]int32
	for i, v := range vals {
		k := sortKey(v)
		keys[i], idx[i] = k, int32(i)
		for d := range count {
			count[d][byte(k>>(8*d))]++
		}
	}
	for d := range count {
		c, shift := &count[d], 8*d
		// A byte every key agrees on (the high exponent bits of values of
		// one magnitude) orders nothing: the pass would be a copy.
		if n == 0 || int(c[byte(keys[0]>>shift)]) == n {
			continue
		}
		var at int32
		for b, k := range c {
			c[b], at = at, at+k
		}
		for i, k := range keys {
			to := c[byte(k>>shift)]
			c[byte(k>>shift)]++
			keysTo[to], idxTo[to] = k, idx[i]
		}
		keys, keysTo, idx, idxTo = keysTo, keys, idxTo, idx
	}
	sorted = make([]float64, n)
	for j, i := range idx {
		sorted[j] = vals[i]
	}
	return idx, sorted
}

// sortKey maps a finite float64 to a uint64 whose unsigned order is the
// float's: a non-negative value sets the sign bit, a negative one inverts
// every bit. −0 is keyed as +0, because < calls them equal: the pair must
// tie and fall back on index order, as it does under a comparison sort.
func sortKey(v float64) uint64 {
	b := math.Float64bits(v)
	if v == 0 {
		b = 0
	}
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// Components returns the mixture size.
func (f *Fitted) Components() int { return len(f.Comps) }

// Variance returns the variance of one sampled element under the mixture
// (law of total variance over the uniformly chosen member). With sketches
// present it is exact for the piecewise-linear sampling distribution;
// otherwise it falls back to the parametric summaries.
func (f *Fitted) Variance() float64 {
	if len(f.Comps) == 0 {
		return 0
	}
	n := float64(len(f.Comps))
	if len(f.Sketches) == len(f.Comps) && f.Sketches[0] != nil {
		var mean, m2 float64
		for _, s := range f.Sketches {
			m1, mm2 := sketchMoments(s)
			mean += m1
			m2 += mm2
		}
		mean /= n
		return m2/n - mean*mean
	}
	var mean, m2, varSum float64
	for _, c := range f.Comps {
		mean += c.Loc
		m2 += c.Loc * c.Loc
		varSum += c.variance(f.Kind)
	}
	mean /= n
	return varSum/n + (m2/n - mean*mean)
}

// sketchMoments returns E[X] and E[X²] of X = quantile(sketch, U) for
// uniform U, exactly for the piecewise-linear inverse CDF: per segment
// [a, b], ∫(a+t(b−a))dt = (a+b)/2 and ∫(a+t(b−a))²dt = (a²+ab+b²)/3.
func sketchMoments(sketch []float32) (m1, m2 float64) {
	seg := 1 / float64(len(sketch)-1)
	for i := 0; i+1 < len(sketch); i++ {
		a, b := float64(sketch[i]), float64(sketch[i+1])
		m1 += (a + b) / 2 * seg
		m2 += (a*a + a*b + b*b) / 3 * seg
	}
	return m1, m2
}

// MeanLoc and MeanScale summarize the mixture for telemetry gauges.
func (f *Fitted) MeanLoc() float64 {
	var s float64
	for _, c := range f.Comps {
		s += c.Loc
	}
	return s / float64(max(1, len(f.Comps)))
}

// MeanScale returns the mixture's mean fitted scale.
func (f *Fitted) MeanScale() float64 {
	var s float64
	for _, c := range f.Comps {
		s += c.Scale
	}
	return s / float64(max(1, len(f.Comps)))
}

// MemoryBytes is the resident size of the fitted source: per member, an
// int32 permutation plus a quantile sketch plus the (loc, scale) pair.
// Compare with a stored collection's 8 bytes × members × elements; the
// sketchKnots budget keeps each fitted member strictly smaller whenever
// the tensor has more than 8 elements.
func (f *Fitted) MemoryBytes() int {
	b := 16 * len(f.Comps)
	for _, o := range f.Orders {
		b += 4 * len(o)
	}
	for _, s := range f.Sketches {
		b += 4 * len(s)
	}
	return b
}

// Validate checks structural invariants: a non-empty mixture of a known
// kind with finite parameters, one non-decreasing finite sketch — all of one
// length — and one permutation of the shape's volume per member.
func (f *Fitted) Validate() error {
	if f == nil {
		return fmt.Errorf("noisedist: nil fitted distribution")
	}
	vol, ok := wire.CheckedVolume(f.Shape, math.MaxInt)
	if !ok || vol <= 0 {
		return fmt.Errorf("noisedist: invalid shape %v", f.Shape)
	}
	if f.Kind != Laplace && f.Kind != Gaussian {
		return fmt.Errorf("noisedist: unknown distribution %v", f.Kind)
	}
	if len(f.Comps) == 0 {
		return fmt.Errorf("noisedist: no fitted components")
	}
	if len(f.Sketches) != len(f.Comps) || len(f.Orders) != len(f.Comps) {
		return fmt.Errorf("noisedist: %d components with %d sketches and %d orders",
			len(f.Comps), len(f.Sketches), len(f.Orders))
	}
	// One bit per element, for all components: a decoded file is validated
	// within a thirty-second of what its orders already take.
	seen := make([]uint64, (vol+63)/64)
	for i, c := range f.Comps {
		if !(c.Scale >= 0) || math.IsInf(c.Scale, 0) || math.IsNaN(c.Loc) || math.IsInf(c.Loc, 0) {
			return fmt.Errorf("noisedist: component %d has invalid parameters (loc %v, scale %v)", i, c.Loc, c.Scale)
		}
		if len(f.Sketches[i]) < 2 || len(f.Sketches[i]) != len(f.Sketches[0]) {
			return fmt.Errorf("noisedist: component %d sketch has %d knots, component 0 has %d", i, len(f.Sketches[i]), len(f.Sketches[0]))
		}
		for j, q := range f.Sketches[i] {
			if math.IsNaN(float64(q)) || math.IsInf(float64(q), 0) || (j > 0 && q < f.Sketches[i][j-1]) {
				return fmt.Errorf("noisedist: component %d sketch not a finite non-decreasing quantile function", i)
			}
		}
		if len(f.Orders[i]) != vol {
			return fmt.Errorf("noisedist: component %d order has %d entries for %d elements", i, len(f.Orders[i]), vol)
		}
		clear(seen)
		for _, o := range f.Orders[i] {
			if o < 0 || int(o) >= vol || seen[o/64]&(1<<(o%64)) != 0 {
				return fmt.Errorf("noisedist: component %d order is not a permutation of [0,%d)", i, vol)
			}
			seen[o/64] |= 1 << (o % 64)
		}
	}
	return nil
}

// SampleInto draws one fresh noise tensor into dst, a caller-owned tensor
// of the fitted shape's volume (a serving loop reuses one): pick a member
// uniformly, draw stratified uniforms through its quantile sketch, and
// scatter them through its order so the sampled tensor is rank-identical to
// the trained one. Deterministic for a given RNG state; the RNG is not
// goroutine-safe, so callers serialize access.
//
// Stratified uniforms u_j = (j + U_j)/n are born sorted, so no sort is
// needed and a draw is O(n): evaluate the inverse CDF at each u_j and
// scatter the j-th value to Orders[m][j]. Stratification also pins each
// draw's empirical distribution to the sketch far tighter than i.i.d.
// uniforms would, which is what closes the accuracy gap to stored replay.
func (f *Fitted) SampleInto(dst *tensor.Tensor, rng *tensor.RNG) {
	m := 0
	if len(f.Comps) > 1 {
		m = rng.Intn(len(f.Comps))
	}
	f.SampleMemberInto(m, dst, rng)
}

// SampleMemberInto draws from member m's distribution specifically,
// letting callers couple several draws to the same member — the
// multiplicative mode samples its (weight, noise) pair jointly, because
// training co-adapts them and a cross-member pair is meaningless.
func (f *Fitted) SampleMemberInto(m int, dst *tensor.Tensor, rng *tensor.RNG) {
	n := tensor.Volume(f.Shape)
	if dst.Len() != n {
		panic(fmt.Sprintf("noisedist: sample into %d elements, fitted over %d", dst.Len(), n))
	}
	if m < 0 || m >= len(f.Comps) {
		panic(fmt.Sprintf("noisedist: sample member %d of %d", m, len(f.Comps)))
	}
	sketch, order := f.Sketches[m], f.Orders[m]
	buf := dst.Data()
	inv := 1 / float64(n)
	for j, pos := range order {
		u := (float64(j) + rng.Float64()) * inv
		buf[pos] = quantile(sketch, u)
	}
}
