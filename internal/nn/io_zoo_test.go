package nn_test

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"shredder/internal/model"
	"shredder/internal/nn"
	"shredder/internal/tensor"
)

// Every zoo network's checkpoint carries its weights bit for bit: a network
// loaded from one saves to the very bytes it was loaded from.
func TestZooCheckpointsRoundTrip(t *testing.T) {
	for _, spec := range model.All() {
		src, dst := spec.Build(tensor.NewRNG(1)), spec.Build(tensor.NewRNG(2))
		var file, again bytes.Buffer
		if err := nn.Save(src, nn.InputNorm{Mean: 0.25, Std: 0.5}, &file); err != nil {
			t.Fatal(err)
		}
		if _, err := nn.Load(dst, bytes.NewReader(file.Bytes())); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if err := nn.Save(dst, nn.InputNorm{Mean: 0.25, Std: 0.5}, &again); err != nil || !bytes.Equal(again.Bytes(), file.Bytes()) {
			t.Errorf("%s: a loaded network does not save to the bytes it was loaded from (%v)", spec.Name, err)
		}
	}
}

// A zoo network built with no RNG — what a cold start on a warm weight
// cache loads into — has the seeded build's parameters, name for name and
// shape for shape, every value zero, and loads a seeded checkpoint bit for
// bit.
func TestZooShapeOnlyBuildLoadsSeededCheckpoint(t *testing.T) {
	for _, spec := range model.All() {
		seeded, bare := spec.Build(tensor.NewRNG(1)), spec.Build(nil)
		want, got := seeded.Params(), bare.Params()
		if len(got) != len(want) {
			t.Fatalf("%s: %d parameters built shape-only, %d seeded", spec.Name, len(got), len(want))
		}
		for i, p := range got {
			if p.Name != want[i].Name || !p.Value.SameShape(want[i].Value) {
				t.Fatalf("%s: shape-only parameter %d is %s %v, seeded %s %v",
					spec.Name, i, p.Name, p.Value.Shape(), want[i].Name, want[i].Value.Shape())
			}
			for _, v := range p.Value.Data() {
				if math.Float64bits(v) != 0 {
					t.Fatalf("%s: shape-only %s holds %v, want +0 everywhere", spec.Name, p.Name, v)
				}
			}
		}
		var file bytes.Buffer
		if err := nn.Save(seeded, nn.InputNorm{Std: 1}, &file); err != nil {
			t.Fatal(err)
		}
		if _, err := nn.Load(bare, bytes.NewReader(file.Bytes())); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for i, p := range got {
			if !tensor.BitEqual(p.Value, want[i].Value) {
				t.Errorf("%s: %s loaded into the shape-only build differs from the seeded one", spec.Name, p.Name)
			}
		}
	}
}

// BenchmarkLoadFile times the checkpoint read of a cold start, the larger of
// its two file reads (DESIGN §5k), into an already-built network.
func BenchmarkLoadFile(b *testing.B) {
	for _, spec := range []model.Spec{model.LeNet(), model.SvhnNet(), model.AlexNet()} {
		path := filepath.Join(b.TempDir(), spec.Name+".ckpt")
		if err := nn.SaveFile(spec.Build(tensor.NewRNG(1)), nn.InputNorm{Std: 1}, path); err != nil {
			b.Fatal(err)
		}
		net := spec.Build(tensor.NewRNG(2))
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := nn.LoadFile(net, path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
