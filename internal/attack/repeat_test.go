package attack

import (
	"math"
	"testing"

	"shredder/internal/core"
	"shredder/internal/tensor"
)

// TestStoredNoiseRepeatsOnTheWire is the first measurement of stored mode's
// traffic-only leak. At a post-ReLU cut a′ = a + n_k, which is n_k itself
// wherever a = 0: an observer who sees nothing but the noised activations
// sees member entries recur, bit for bit, at the same coordinate. Across 64
// queries of distinct inputs through core.Edge.Step at LeNet conv0 with a
// 2-member stored collection, every value seen more than once at a
// coordinate is a member's entry there; the test logs the share of values
// that recur.
func TestStoredNoiseRepeatsOnTheWire(t *testing.T) {
	split, pre := attackRig(t)
	rng := tensor.NewRNG(31)
	col := &core.Collection{}
	for range 2 {
		col.AddMember(core.NewNoiseTensor(split.ActivationShape(), 0, 1, rng), nil, 1)
	}
	edge := core.NewEdge(split, col, 32)
	const queries = 64
	vol := tensor.Volume(split.ActivationShape())
	seen := make([]map[uint64]int, vol) // per coordinate: a value's bits → times seen
	for i := range seen {
		seen[i] = map[uint64]int{}
	}
	var a *tensor.Tensor
	for q := range queries {
		x := pre.Train.Images.Slice(q).Reshape(append([]int{1}, pre.Spec.Dataset.SampleShape()...)...)
		a, _ = edge.Step(a, x)
		for i, v := range a.Data() {
			seen[i][math.Float64bits(v)]++
		}
	}
	repeated := 0
	for i, values := range seen {
		for bits, n := range values {
			if n < 2 {
				continue
			}
			repeated += n
			if bits != math.Float64bits(col.Members[0].Data()[i]) && bits != math.Float64bits(col.Members[1].Data()[i]) {
				t.Fatalf("coordinate %d: %x recurs %d times and is no member's entry", i, bits, n)
			}
		}
	}
	if repeated == 0 {
		t.Fatal("no value recurs: the cut is not post-ReLU, or the members do not show through")
	}
	t.Logf("%d of %d observed values (%.1f %%) recur bit for bit as a member's entry", repeated, queries*vol, 100*float64(repeated)/float64(queries*vol))
}
