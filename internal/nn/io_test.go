package nn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"shredder/internal/tensor"
	"shredder/internal/wire"
)

// testNorm is the input normalisation the io tests save their networks under.
var testNorm = InputNorm{Mean: 0.25, Std: 0.5}

func smallNet(seed int64) *Sequential {
	rng := tensor.NewRNG(seed)
	return NewSequential("small",
		NewConv2D("conv0", 1, 2, 3, 3, 1, 1, rng),
		NewReLU("relu0"),
		NewFlatten("flat"),
		NewLinear("fc", 2*4*4, 3, rng),
	)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	src := smallNet(1)
	dst := smallNet(2) // different init; must become identical after Load
	var buf bytes.Buffer
	if err := Save(src, testNorm, &buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if norm, err := Load(dst, &buf); err != nil || norm != testNorm {
		t.Fatalf("Load: %v, %v; want %v", norm, err, testNorm)
	}
	x := tensor.NewRNG(3).FillNormal(tensor.New(2, 1, 4, 4), 0, 1)
	if !tensor.AllClose(src.ForwardT(nil, x, false), dst.ForwardT(nil, x, false), 1e-12) {
		t.Fatal("loaded network differs from saved network")
	}
}

func TestLoadWrongNameFails(t *testing.T) {
	src := smallNet(1)
	var buf bytes.Buffer
	if err := Save(src, testNorm, &buf); err != nil {
		t.Fatal(err)
	}
	other := NewSequential("other", NewReLU("r"))
	if _, err := Load(other, &buf); err == nil {
		t.Fatal("Load should reject a checkpoint for a different network")
	}
}

func TestLoadShapeMismatchFails(t *testing.T) {
	src := smallNet(1)
	var buf bytes.Buffer
	if err := Save(src, testNorm, &buf); err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(4)
	// Same name and layer names but different fc width.
	dst := NewSequential("small",
		NewConv2D("conv0", 1, 2, 3, 3, 1, 1, rng),
		NewReLU("relu0"),
		NewFlatten("flat"),
		NewLinear("fc", 2*4*4, 7, rng),
	)
	if _, err := Load(dst, &buf); err == nil {
		t.Fatal("Load should reject mismatched parameter shapes")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	src := smallNet(5)
	if err := SaveFile(src, testNorm, path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	dst := smallNet(6)
	if norm, err := LoadFile(dst, path); err != nil || norm != testNorm {
		t.Fatalf("LoadFile: %v, %v; want %v", norm, err, testNorm)
	}
	x := tensor.NewRNG(7).FillNormal(tensor.New(1, 1, 4, 4), 0, 1)
	if !tensor.AllClose(src.ForwardT(nil, x, false), dst.ForwardT(nil, x, false), 1e-12) {
		t.Fatal("file round trip changed parameters")
	}
	if _, err := LoadFile(dst, filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Fatal("LoadFile of missing path should fail")
	}
}

// rawParam is one parameter as a checkpoint spells it; a test fills it with
// what Save would refuse to write.
type rawParam struct {
	name string
	dims []uint32
	data []float64
}

// rawCheckpoint assembles a checkpoint field by field.
func rawCheckpoint(network string, norm InputNorm, params []rawParam) []byte {
	b := wire.AppendName([]byte(checkpointMagic), network)
	b = wire.AppendFloats(b, []float64{norm.Mean, norm.Std})
	b = binary.LittleEndian.AppendUint32(b, uint32(len(params)))
	for _, p := range params {
		b = wire.AppendName(b, p.name)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p.dims)))
		for _, d := range p.dims {
			b = binary.LittleEndian.AppendUint32(b, d)
		}
		b = wire.AppendFloats(b, p.data)
	}
	return b
}

// loadSeeds are the weight files FuzzLoad starts from: a valid checkpoint of
// smallNet and the ways one goes wrong.
func loadSeeds(t testing.TB) map[string][]byte {
	var valid bytes.Buffer
	if err := Save(smallNet(1), testNorm, &valid); err != nil {
		t.Fatal(err)
	}
	// smallNet(1)'s parameters, with edit applied to the one called name.
	params := func(name string, edit func(p *rawParam)) []rawParam {
		var ps []rawParam
		for _, p := range smallNet(1).Params() {
			rp := rawParam{name: p.Name, data: p.Value.Data()}
			for _, d := range p.Value.Shape() {
				rp.dims = append(rp.dims, uint32(d))
			}
			if p.Name == name {
				edit(&rp)
			}
			ps = append(ps, rp)
		}
		return ps
	}
	file := func(name string, edit func(p *rawParam)) []byte {
		return rawCheckpoint("small", testNorm, params(name, edit))
	}
	intact := params("", nil)
	old, err := os.ReadFile(filepath.Join("testdata", "old_gob_checkpoint.gob"))
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[string][]byte{
		"valid":             valid.Bytes(),
		"trailing byte":     append(append([]byte(nil), valid.Bytes()...), 0),
		"old gob":           old,
		"wrong network":     rawCheckpoint("other", testNorm, intact),
		"missing param":     rawCheckpoint("small", testNorm, intact[:len(intact)-1]),
		"extra param":       rawCheckpoint("small", testNorm, append(intact, intact[0])),
		"duplicate param":   file("fc.b", func(p *rawParam) { *p = intact[2] }),
		"renamed param":     file("fc.b", func(p *rawParam) { p.name = "fc.bias" }),
		"swapped params":    rawCheckpoint("small", testNorm, []rawParam{intact[1], intact[0], intact[2], intact[3]}),
		"wrong shape":       file("fc.b", func(p *rawParam) { p.dims = []uint32{1, 3} }),
		"negative dim":      file("fc.b", func(p *rawParam) { p.dims = []uint32{0xffffffff, 0xfffffffd} }),
		"overflow dim":      file("fc.b", func(p *rawParam) { p.dims = []uint32{math.MaxInt32, math.MaxInt32, math.MaxInt32, math.MaxInt32, 3} }),
		"rank 9":            file("fc.b", func(p *rawParam) { p.dims = []uint32{1, 1, 1, 1, 1, 1, 1, 1, 3} }),
		"one value short":   file("fc.b", func(p *rawParam) { p.data = p.data[:2] }),
		"one value long":    file("fc.b", func(p *rawParam) { p.data = append(p.data[:3:3], 1) }),
		"count past params": binary.LittleEndian.AppendUint32(wire.AppendFloats(wire.AppendName([]byte(checkpointMagic), "small"), []float64{0.25, 0.5}), 0xffffffff),
		"zero std":          rawCheckpoint("small", InputNorm{Mean: 1}, intact),
		"negative std":      rawCheckpoint("small", InputNorm{Std: -1}, intact),
		"nan norm":          rawCheckpoint("small", InputNorm{Mean: math.NaN(), Std: math.Inf(1)}, intact),
	}
	// Cut at a field boundary of each kind, and inside the last payload.
	for name, n := range map[string]int{
		"magic": len(checkpointMagic), "network name": len(checkpointMagic) + 2 + len("small"),
		"norm": len(checkpointMagic) + 2 + len("small") + 16, "count": len(checkpointMagic) + 2 + len("small") + 20,
		"half": valid.Len() / 2, "last byte": valid.Len() - 1,
	} {
		seeds["cut after "+name] = valid.Bytes()[:n]
	}
	return seeds
}

func TestLoadRefusesMalformedFiles(t *testing.T) {
	for name, file := range loadSeeds(t) {
		net, before := smallNet(2), smallNet(2)
		norm, err := Load(net, bytes.NewReader(file))
		if (err == nil) != (name == "valid") {
			t.Errorf("%s file: Load error = %v", name, err)
		}
		if noNorm := name == "zero std" || name == "negative std" || name == "nan norm"; errors.Is(err, ErrNoInputNorm) != noNorm {
			t.Errorf("%s file: Load error = %v, ErrNoInputNorm wanted: %v", name, err, noNorm)
		}
		if name == "old gob" && (!strings.Contains(err.Error(), "format changed") || !strings.Contains(err.Error(), "pre-train")) {
			t.Errorf("%s file: Load error %q does not say the format changed and what to do", name, err)
		}
		if err == nil {
			if norm != testNorm {
				t.Errorf("%s file: loaded normalisation %v, saved %v", name, norm, testNorm)
			}
			continue
		}
		if norm != (InputNorm{}) {
			t.Errorf("%s file: refused, yet normalisation %v returned", name, norm)
		}
		for i, p := range net.Params() {
			if !tensor.Equal(p.Value, before.Params()[i].Value) {
				t.Errorf("%s file: refused, yet parameter %s changed", name, p.Name)
			}
		}
	}
}

// A checkpoint cut anywhere is refused and leaves the network as it was.
func TestLoadEveryTruncation(t *testing.T) {
	var valid bytes.Buffer
	if err := Save(smallNet(1), testNorm, &valid); err != nil {
		t.Fatal(err)
	}
	net, before := smallNet(2), smallNet(2)
	for n := 0; n < valid.Len(); n++ {
		if _, err := Load(net, bytes.NewReader(valid.Bytes()[:n])); err == nil {
			t.Fatalf("a checkpoint cut to %d of %d bytes loaded", n, valid.Len())
		}
	}
	for i, p := range net.Params() {
		if !tensor.Equal(p.Value, before.Params()[i].Value) {
			t.Errorf("refused every time, yet parameter %s changed", p.Name)
		}
	}
}

// Save∘Load is the identity bit for bit — −0, denormals, the extreme
// exponents and non-finite values a diverged run leaves included — and a
// loaded network saves to the bytes it was loaded from.
func TestCheckpointRoundTripBitExact(t *testing.T) {
	src := smallNet(1)
	odd := []float64{math.Copysign(0, -1), math.SmallestNonzeroFloat64, -0x1p-1060, 0x1p-1022, math.MaxFloat64,
		-math.MaxFloat64, math.Inf(-1), math.Float64frombits(0x7ff8000000000abc)}
	for _, p := range src.Params() {
		copy(p.Value.Data(), odd)
	}
	var file bytes.Buffer
	if err := Save(src, testNorm, &file); err != nil {
		t.Fatal(err)
	}
	dst := smallNet(2)
	if _, err := Load(dst, bytes.NewReader(file.Bytes())); err != nil {
		t.Fatal(err)
	}
	for i, p := range src.Params() {
		for j, v := range p.Value.Data() {
			if got := dst.Params()[i].Value.Data()[j]; math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("%s[%d]: %x loaded as %x", p.Name, j, math.Float64bits(v), math.Float64bits(got))
			}
		}
	}
	var again bytes.Buffer
	if err := Save(dst, testNorm, &again); err != nil || !bytes.Equal(again.Bytes(), file.Bytes()) {
		t.Fatalf("a loaded network does not save to the bytes it was loaded from (%v)", err)
	}
}

// FuzzLoad: a weight file is read from disk, so any bytes may arrive. Load
// must refuse them or load a complete set of well-shaped parameters and a
// usable normalisation — never panic — and what it allocates is bounded by
// the file's own size: it is read once, and converted into storage the
// network already has.
func FuzzLoad(f *testing.F) {
	for _, file := range loadSeeds(f) {
		f.Add(file)
	}
	f.Fuzz(func(t *testing.T, file []byte) {
		net := smallNet(2)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		norm, err := Load(net, bytes.NewReader(file))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*uint64(len(file))+64<<10 {
			t.Fatalf("%d-byte file made Load allocate %d bytes", len(file), grew)
		}
		if err != nil {
			return
		}
		if !norm.valid() {
			t.Fatalf("loaded an unusable input normalisation %+v", norm)
		}
		for i, p := range net.Params() {
			if want := smallNet(2).Params()[i].Value; !tensor.ShapeEq(p.Value.Shape(), want.Shape()) {
				t.Fatalf("loaded parameter %s has shape %v, the model's is %v", p.Name, p.Value.Shape(), want.Shape())
			}
		}
		var again bytes.Buffer
		if err := Save(net, norm, &again); err != nil || !bytes.Equal(again.Bytes(), file) {
			t.Fatalf("an accepted checkpoint does not save back to itself (%v)", err)
		}
	})
}
