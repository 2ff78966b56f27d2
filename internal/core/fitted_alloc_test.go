package core

import (
	"testing"

	"shredder/internal/noisedist"
	"shredder/internal/tensor"
)

// TestFittedDrawIntoZeroAlloc pins the serving-hot-path claim: once a
// DrawScratch is warm, fitted draws (additive and multiplicative) allocate
// nothing per query. A draw without a scratch allocates a fresh tensor per
// query by design — that contrast is what the scratch exists to remove.
func TestFittedDrawIntoZeroAlloc(t *testing.T) {
	for _, mul := range []bool{false, true} {
		name := "additive"
		if mul {
			name = "multiplicative"
		}
		t.Run(name, func(t *testing.T) {
			col := syntheticCollection(4, mul)
			fc, err := FitCollection(col, noisedist.Laplace)
			if err != nil {
				t.Fatal(err)
			}
			rng := tensor.NewRNG(7)
			var scratch DrawScratch
			DrawReusing(fc, &scratch, rng) // first call allocates the scratch buffers
			allocs := testing.AllocsPerRun(200, func() {
				d := DrawReusing(fc, &scratch, rng)
				if d.Noise == nil {
					t.Fatal("draw lost its noise tensor")
				}
			})
			if allocs != 0 {
				t.Errorf("warm DrawReusing allocates %.1f objects per draw, want 0", allocs)
			}
			plain := testing.AllocsPerRun(50, func() { fc.DrawInto(nil, rng) })
			if plain == 0 {
				t.Error("a draw without a scratch reported zero allocations — the scratch would be pointless; is DrawInto sharing state?")
			}
		})
	}
}

// TestDrawReusingStoredPassthrough: stored collections replay resident
// members, so DrawReusing must not copy them into scratch — the draw
// aliases the stored member tensor itself and the scratch stays untouched.
func TestDrawReusingStoredPassthrough(t *testing.T) {
	col := syntheticCollection(3, false)
	rng := tensor.NewRNG(11)
	var scratch DrawScratch
	d := DrawReusing(col, &scratch, rng)
	if d.Member < 0 || d.Member >= 3 {
		t.Fatalf("stored draw member %d out of range", d.Member)
	}
	if d.Noise != col.Members[d.Member] {
		t.Fatal("stored draw does not alias the resident member tensor")
	}
	if scratch.noise != nil || scratch.weight != nil {
		t.Fatal("stored draw populated the fitted scratch")
	}
}
