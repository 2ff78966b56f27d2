package data

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"shredder/internal/tensor"
)

func allGenerators() []Generator {
	return []Generator{Digits{}, Objects{}, HouseNumbers{}, TinyScenes{}}
}

func TestGeneratorsBasicContract(t *testing.T) {
	for _, g := range allGenerators() {
		ds := g.Generate(40, 1)
		if ds.N() != 40 {
			t.Fatalf("%s: N = %d", g.Name(), ds.N())
		}
		if !tensor.ShapeEq(ds.SampleShape(), g.SampleShape()) {
			t.Fatalf("%s: sample shape %v, want %v", g.Name(), ds.SampleShape(), g.SampleShape())
		}
		for _, y := range ds.Labels {
			if y < 0 || y >= g.Classes() {
				t.Fatalf("%s: label %d out of range", g.Name(), y)
			}
		}
		// Pixel range before normalization is [0,1].
		if ds.Images.Min() < 0 || ds.Images.Max() > 1 {
			t.Fatalf("%s: pixels outside [0,1]: [%v, %v]", g.Name(), ds.Images.Min(), ds.Images.Max())
		}
		if !ds.Images.AllFinite() {
			t.Fatalf("%s: non-finite pixels", g.Name())
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, g := range allGenerators() {
		a := g.Generate(16, 99)
		b := g.Generate(16, 99)
		if !tensor.Equal(a.Images, b.Images) {
			t.Fatalf("%s: same seed produced different images", g.Name())
		}
		c := g.Generate(16, 100)
		if tensor.Equal(a.Images, c.Images) {
			t.Fatalf("%s: different seeds produced identical images", g.Name())
		}
	}
}

func TestGeneratorsBalancedLabels(t *testing.T) {
	for _, g := range allGenerators() {
		n := g.Classes() * 12
		ds := g.Generate(n, 5)
		for cls, count := range ds.ClassCounts() {
			if count != 12 {
				t.Fatalf("%s: class %d has %d samples, want 12", g.Name(), cls, count)
			}
		}
	}
}

func TestIntraClassVariation(t *testing.T) {
	// Two samples of the same class must differ substantially — the method
	// is pointless on constant-per-class data.
	ds := Digits{}.Generate(100, 7)
	byClass := map[int][]int{}
	for i, y := range ds.Labels {
		byClass[y] = append(byClass[y], i)
	}
	for cls, idx := range byClass {
		if len(idx) < 2 {
			continue
		}
		d := tensor.Sub(ds.Image(idx[0]), ds.Image(idx[1]))
		if d.SqSum() < 1 {
			t.Fatalf("class %d: two samples nearly identical (dist² = %v)", cls, d.SqSum())
		}
	}
}

func TestClassesAreDistinguishable(t *testing.T) {
	// Mean image of one class should differ from another's: a sanity check
	// that labels carry signal.
	ds := Digits{}.Generate(200, 8)
	means := make([]*tensor.Tensor, 10)
	counts := make([]int, 10)
	for i, y := range ds.Labels {
		if means[y] == nil {
			means[y] = tensor.New(ds.SampleShape()...)
		}
		means[y].AddInPlace(ds.Image(i))
		counts[y]++
	}
	for y := range means {
		means[y].Scale(1 / float64(counts[y]))
	}
	d := tensor.Sub(means[0], means[1])
	if d.SqSum() < 0.1 {
		t.Fatalf("class means for 0 and 1 nearly identical: %v", d.SqSum())
	}
}

func TestSplitPartition(t *testing.T) {
	ds := Objects{}.Generate(50, 3)
	train, test := ds.Split(30, 11)
	if train.N() != 30 || test.N() != 20 {
		t.Fatalf("split sizes %d/%d", train.N(), test.N())
	}
	if train.Classes != ds.Classes || test.Name != ds.Name {
		t.Fatal("split must preserve metadata")
	}
}

func TestSplitOutOfRangePanics(t *testing.T) {
	ds := Digits{}.Generate(10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ds.Split(11, 1)
}

func TestBatches(t *testing.T) {
	ds := Digits{}.Generate(25, 2)
	batches := ds.Batches(8)
	if len(batches) != 4 {
		t.Fatalf("got %d batches", len(batches))
	}
	total := 0
	for i, b := range batches {
		if b.Images.Dim(0) != len(b.Labels) {
			t.Fatal("batch image/label count mismatch")
		}
		total += len(b.Labels)
		if i < 3 && len(b.Labels) != 8 {
			t.Fatalf("batch %d size %d", i, len(b.Labels))
		}
	}
	if total != 25 {
		t.Fatalf("batches cover %d of 25 samples", total)
	}
	if len(batches[3].Labels) != 1 {
		t.Fatalf("last batch size %d, want 1", len(batches[3].Labels))
	}
}

func TestBatchesAreCopies(t *testing.T) {
	ds := Digits{}.Generate(4, 2)
	orig := ds.Image(0).Clone()
	b := ds.Batches(4)[0]
	b.Images.Fill(0)
	if !tensor.Equal(ds.Image(0), orig) {
		t.Fatal("mutating a batch corrupted the dataset")
	}
}

func TestNormalize(t *testing.T) {
	ds := Objects{}.Generate(30, 4)
	mean, std := ds.Normalize()
	if math.Abs(ds.Images.Mean()) > 1e-9 {
		t.Fatalf("post-normalize mean = %v", ds.Images.Mean())
	}
	if math.Abs(ds.Images.Std()-1) > 1e-9 {
		t.Fatalf("post-normalize std = %v", ds.Images.Std())
	}
	if std <= 0 || mean <= 0 {
		t.Fatalf("returned stats mean=%v std=%v", mean, std)
	}
	// Applying the same stats to a second dataset must be consistent.
	ds2 := Objects{}.Generate(30, 4)
	ds2.ApplyNormalization(mean, std)
	if !tensor.AllClose(ds.Images, ds2.Images, 1e-12) {
		t.Fatal("ApplyNormalization inconsistent with Normalize")
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	ds := Digits{}.Generate(30, 6)
	sh := ds.Shuffle(9)
	if sh.N() != ds.N() {
		t.Fatal("shuffle changed size")
	}
	a, b := ds.ClassCounts(), sh.ClassCounts()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("shuffle changed class histogram")
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"digits", "objects", "housenumbers", "tinyscenes"} {
		g, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if g.Name() != name {
			t.Fatalf("ByName(%s) returned %s", name, g.Name())
		}
	}
	if _, err := ByName("mnist"); err == nil {
		t.Fatal("ByName should fail on unknown dataset")
	}
}

func TestSubsetSelectsCorrectSamples(t *testing.T) {
	ds := Digits{}.Generate(10, 12)
	sub := ds.Subset([]int{3, 7})
	if sub.N() != 2 {
		t.Fatalf("subset N = %d", sub.N())
	}
	if !tensor.Equal(sub.Image(0), ds.Image(3)) || sub.Labels[1] != ds.Labels[7] {
		t.Fatal("subset selected wrong samples")
	}
}

// datasetDigest hashes what model.Train feeds a network from generator g:
// the normalised train and test tensors, their labels, and the bits of the
// (mean, std) pair the normalisation applied.
func datasetDigest(g Generator) string {
	const trainN, testN, seed = 24, 16, 7
	trainR, testR, err := NewRecipe(g, trainN+testN, seed+1000).Split(trainN, seed+2000)
	if err != nil {
		panic(err)
	}
	train, test := trainR.Materialize(), testR.Materialize()
	mean, std := train.Normalize()
	test.ApplyNormalization(mean, std)
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, ds := range []*Dataset{train, test} {
		for _, v := range ds.Images.Data() {
			put(math.Float64bits(v))
		}
		for _, y := range ds.Labels {
			put(uint64(y))
		}
	}
	put(math.Float64bits(mean))
	put(math.Float64bits(std))
	return hex.EncodeToString(h.Sum(nil))
}

// Pins dataset preparation — recipe, split, render into place, normalise —
// bit for bit. The digests were recorded on the generate-then-gather path,
// before Subset and Normalize were rewritten into fewer passes; every
// pre-trained weight, and so every results_* number, sits downstream of
// these bytes.
func TestDatasetDigestPinned(t *testing.T) {
	want := map[string]string{
		"digits":       "0271423abf6ff5f93eb11479e9187300e8448a486eb84b5f93208acd08a69a7f",
		"objects":      "0f075b4b6d5e83a029abd80f9999aabba392aa3dc6c1f2276de29f8b89845f87",
		"housenumbers": "d78601e4e6e11358ae52def2644b9446d6dd3c0d913ac1cf2977c506c0efbed2",
		"tinyscenes":   "6f88effdb12e1a761f10e3474e07e72091b7ef7a1d06ad170f6bc2b69db8a623",
	}
	for _, g := range allGenerators() {
		if got := datasetDigest(g); got != want[g.Name()] {
			t.Errorf("%s: dataset digest %s, want %s", g.Name(), got, want[g.Name()])
		}
	}
}

// A split recipe rendered into place is the dataset the gather path builds —
// generate everything, then copy each split out (Dataset.Split, kept as the
// reference) — and one sample rendered alone is its row of that dataset.
func TestRecipeEqualsGenerateThenSplit(t *testing.T) {
	const trainN, testN, seed = 14, 9, 3
	for _, g := range allGenerators() {
		wantTrain, wantTest := g.Generate(trainN+testN, seed).Split(trainN, seed+1)
		trainR, testR, err := NewRecipe(g, trainN+testN, seed).Split(trainN, seed+1)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			r    *Recipe
			want *Dataset
		}{{"train", trainR, wantTrain}, {"test", testR, wantTest}} {
			got := c.r.Materialize()
			if !tensor.Equal(got.Images, c.want.Images) {
				t.Errorf("%s %s: rendered into place differs from generate-then-gather", g.Name(), c.name)
			}
			if got.Name != c.want.Name || got.Classes != c.want.Classes || c.r.N() != c.want.N() {
				t.Errorf("%s %s: metadata %s/%d/%d, want %s/%d/%d", g.Name(), c.name,
					got.Name, got.Classes, c.r.N(), c.want.Name, c.want.Classes, c.want.N())
			}
			for i, y := range c.want.Labels {
				img := tensor.New(g.SampleShape()...).Fill(7) // Render owes nothing to what img held
				c.r.Render(i, img)
				if got.Labels[i] != y || c.r.Label(i) != y || !tensor.Equal(img, c.want.Image(i)) {
					t.Fatalf("%s %s sample %d: rendered alone differs from its row", g.Name(), c.name, i)
				}
			}
		}
	}
}

func TestRecipeSplitOutOfRangeIsAnError(t *testing.T) {
	r := NewRecipe(Digits{}, 10, 1)
	for _, trainN := range []int{-1, 11} {
		if _, _, err := r.Split(trainN, 1); err == nil {
			t.Errorf("Split(%d) of 10 samples: no error", trainN)
		}
	}
	if train, test, err := r.Split(10, 1); err != nil || train.N() != 10 || test.N() != 0 {
		t.Errorf("Split(10) of 10 samples: %v", err)
	}
}

// A sample normalised alone has the bits it has inside a normalised dataset.
func TestApplyNormalizationAloneMatchesDataset(t *testing.T) {
	ds := Objects{}.Generate(12, 4)
	raw := ds.Images.Clone()
	mean, std := ds.Normalize()
	for i := 0; i < ds.N(); i++ {
		px := raw.Slice(i).Clone()
		ApplyNormalization(px.Data(), mean, std)
		if !tensor.Equal(px, ds.Image(i)) {
			t.Fatalf("sample %d normalised alone differs from the dataset's", i)
		}
	}
}
