package nn

// Tests for the tape execution contexts: for every layer a pass through a
// tape reused after Reset (as model.Train holds one) must be
// bitwise-identical to a pass through a fresh tape, frozen tapes must never
// write parameter
// gradients, tape misuse must panic loudly, and per-tape RNGs must give
// concurrent dropout passes reproducible independent streams.

import (
	"strings"
	"testing"

	"shredder/internal/tensor"
)

// tapeCase builds a fresh layer (with deterministic parameters) and the
// input it expects. build is called once per execution path so each path
// starts from an identical, independent instance.
type tapeCase struct {
	name  string
	build func() tapeLayer
	x     *tensor.Tensor
}

func tapeCases() []tapeCase {
	rng := tensor.NewRNG(31)
	img := rng.FillNormal(tensor.New(2, 3, 8, 8), 0, 1)
	flat := rng.FillNormal(tensor.New(2, 192), 0, 1)
	return []tapeCase{
		{"conv", func() tapeLayer { return NewConv2D("conv", 3, 4, 3, 3, 1, 1, tensor.NewRNG(41)) }, img},
		{"linear", func() tapeLayer { return NewLinear("lin", 192, 10, tensor.NewRNG(42)) }, flat},
		{"relu", func() tapeLayer { return NewReLU("relu") }, img},
		{"flatten", func() tapeLayer { return NewFlatten("flat") }, img},
		{"dropout", func() tapeLayer { return NewDropout("drop", 0.4, tensor.NewRNG(43)) }, img},
		{"maxpool", func() tapeLayer { return NewMaxPool2D("mp", 2, 2) }, img},
		{"lrn", func() tapeLayer { return NewLocalResponseNorm("lrn", 3, 0, 0, 0) }, img},
	}
}

// TestTapePathMatchesLegacy (named for the struct-held tapes the reference
// instance once ran on) drives one instance of every layer through a tape
// that has already recorded a pass and been Reset, as the layers' own tapes
// were, and an identical instance through a fresh tape, in training mode,
// and requires bitwise-equal outputs, input gradients, and parameter
// gradients.
func TestTapePathMatchesLegacy(t *testing.T) {
	grng := tensor.NewRNG(99)
	for _, tc := range tapeCases() {
		legacy, taped := tc.build(), tc.build()

		held := NewTape()
		tc.build().ForwardT(held, tc.x, true)
		held.Reset()
		wantOut := legacy.ForwardT(held, tc.x, true)
		w := grng.FillNormal(tensor.New(wantOut.Shape()...), 0, 1)
		for _, p := range legacy.Params() {
			p.ZeroGrad()
		}
		wantDx := legacy.BackwardT(held, w)

		tape := NewTape()
		gotOut := taped.ForwardT(tape, tc.x, true)
		if !tensor.Equal(gotOut, wantOut) {
			t.Errorf("%s: tape forward output diverges from legacy", tc.name)
			continue
		}
		if len(tape.entries) != 1 {
			t.Errorf("%s: ForwardT recorded %d tape entries, want 1", tc.name, len(tape.entries))
		}
		gotDx := taped.BackwardT(tape, w)
		if !tensor.Equal(gotDx, wantDx) {
			t.Errorf("%s: tape input gradient diverges from legacy", tc.name)
		}
		if len(tape.entries) != 0 {
			t.Errorf("%s: BackwardT left %d tape entries", tc.name, len(tape.entries))
		}
		lp, tp := legacy.Params(), taped.Params()
		for i := range lp {
			if !tensor.Equal(tp[i].Grad, lp[i].Grad) {
				t.Errorf("%s: tape param grad %s diverges from legacy", tc.name, lp[i].Name)
			}
		}
	}
}

// tinyTapeNet builds a deterministic network touching every layer type.
func tinyTapeNet() *Sequential {
	return NewSequential("tiny",
		NewConv2D("conv0", 1, 4, 3, 3, 1, 1, tensor.NewRNG(51)),
		NewReLU("relu0"),
		NewMaxPool2D("pool0", 2, 2),
		NewLocalResponseNorm("lrn0", 3, 0, 0, 0),
		NewConv2D("conv1", 4, 6, 3, 3, 1, 1, tensor.NewRNG(52)),
		NewReLU("relu1"),
		NewMaxPool2D("pool1", 2, 2),
		NewFlatten("flat"),
		NewDropout("drop", 0.3, tensor.NewRNG(53)),
		NewLinear("fc", 54, 10, tensor.NewRNG(54)),
	)
}

// TestSequentialTapeMatchesLegacy checks the whole-network chain: a
// training-mode forward/backward through a fresh tape must reproduce one
// through a tape reused after Reset bitwise, including every parameter
// gradient.
func TestSequentialTapeMatchesLegacy(t *testing.T) {
	rng := tensor.NewRNG(61)
	x := rng.FillNormal(tensor.New(2, 1, 12, 12), 0, 1)

	legacy, taped := tinyTapeNet(), tinyTapeNet()

	held := NewTape()
	tinyTapeNet().ForwardT(held, x, true)
	held.Reset()
	wantOut := legacy.ForwardT(held, x, true)
	w := rng.FillNormal(tensor.New(wantOut.Shape()...), 0, 1)
	legacy.ZeroGrad()
	wantDx := legacy.BackwardT(held, w)

	tape := NewTape()
	gotOut := taped.ForwardT(tape, x, true)
	if !tensor.Equal(gotOut, wantOut) {
		t.Fatal("tape forward diverges from legacy forward")
	}
	if len(tape.entries) != taped.Len() {
		t.Fatalf("tape has %d entries after forward, want %d", len(tape.entries), taped.Len())
	}
	gotDx := taped.BackwardT(tape, w)
	if !tensor.Equal(gotDx, wantDx) {
		t.Fatal("tape backward diverges from legacy backward")
	}
	lp, tp := legacy.Params(), taped.Params()
	for i := range lp {
		if !tensor.Equal(tp[i].Grad, lp[i].Grad) {
			t.Fatalf("param %s: tape grad diverges from legacy", lp[i].Name)
		}
	}
}

// TestFrozenTapeSequential checks Shredder's training mode end to end: a
// frozen tape yields the same input gradient as a recording tape while
// leaving every parameter gradient untouched.
func TestFrozenTapeSequential(t *testing.T) {
	rng := tensor.NewRNG(62)
	x := rng.FillNormal(tensor.New(2, 1, 12, 12), 0, 1)

	plain, frozen := tinyTapeNet(), tinyTapeNet()

	tape := NewTape()
	out := plain.ForwardT(tape, x, true)
	w := rng.FillNormal(tensor.New(out.Shape()...), 0, 1)
	wantDx := plain.BackwardT(tape, w)

	ft := NewFrozenTape()
	if fout := frozen.ForwardT(ft, x, true); !tensor.Equal(fout, out) {
		t.Fatal("frozen forward diverges from recording forward")
	}
	if gotDx := frozen.BackwardT(ft, w); !tensor.Equal(gotDx, wantDx) {
		t.Fatal("frozen input gradient diverges")
	}
	for _, p := range frozen.Params() {
		for _, v := range p.Grad.Data() {
			if v != 0 {
				t.Fatalf("frozen tape wrote parameter gradient %s", p.Name)
			}
		}
	}
}

// TestTapeRNGGivesReproducibleDropout verifies that two tapes carrying
// identically seeded RNGs draw identical dropout masks from one shared
// layer — the property that makes parallel noise training byte-identical
// to sequential training.
func TestTapeRNGGivesReproducibleDropout(t *testing.T) {
	rng := tensor.NewRNG(63)
	d := NewDropout("drop", 0.5, tensor.NewRNG(1))
	x := rng.FillNormal(tensor.New(4, 32), 0, 1)

	run := func(seed int64) *tensor.Tensor {
		tape := NewTape()
		tape.RNG = tensor.NewRNG(seed)
		out := d.ForwardT(tape, x, true)
		d.BackwardT(tape, tensor.New(out.Shape()...).Fill(1))
		return out
	}
	if !tensor.Equal(run(7), run(7)) {
		t.Fatal("same tape seed produced different dropout masks")
	}
	if tensor.Equal(run(7), run(8)) {
		t.Fatal("different tape seeds produced identical dropout masks")
	}
}

// mustPanic runs f and asserts it panics with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q", want)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v is not a string", r)
		}
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not contain %q", msg, want)
		}
	}()
	f()
}

func TestTapeMisusePanics(t *testing.T) {
	rng := tensor.NewRNG(64)
	relu := NewReLU("relu")
	fc := NewLinear("fc", 4, 2, rng)
	x := rng.FillNormal(tensor.New(1, 4), 0, 1)

	// Backward through a discarded (nil) tape.
	relu.ForwardT(nil, x, false)
	mustPanic(t, "discarded (nil) tape", func() { relu.BackwardT(nil, x) })

	// Backward with no matching forward on the tape.
	mustPanic(t, "without a matching ForwardT", func() { relu.BackwardT(NewTape(), x) })

	// Out-of-order unwind: the tape top belongs to a different layer.
	tape := NewTape()
	h := relu.ForwardT(tape, x, true)
	out := fc.ForwardT(tape, h, true)
	mustPanic(t, "out of order", func() { relu.BackwardT(tape, out) })
}

// TestLegacyBackwardBeforeForwardPanics pins the empty-tape guard for every
// layer type.
func TestLegacyBackwardBeforeForwardPanics(t *testing.T) {
	for _, tc := range tapeCases() {
		l := tc.build()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Backward before Forward did not panic", tc.name)
				}
			}()
			l.BackwardT(NewTape(), tc.x)
		}()
	}
}
