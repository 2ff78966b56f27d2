package nn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"shredder/internal/tensor"
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
	path := filepath.Join(dir, "model.gob")
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
	if _, err := LoadFile(dst, filepath.Join(dir, "missing.gob")); err == nil {
		t.Fatal("LoadFile of missing path should fail")
	}
}

// loadSeeds are the weight files FuzzLoad starts from: a valid checkpoint of
// smallNet and the ways one goes wrong.
func loadSeeds(t testing.TB) map[string][]byte {
	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var valid bytes.Buffer
	if err := Save(smallNet(1), testNorm, &valid); err != nil {
		t.Fatal(err)
	}
	params := func() map[string]*tensor.Tensor {
		m := map[string]*tensor.Tensor{}
		for _, p := range smallNet(1).Params() {
			m[p.Name] = p.Value
		}
		return m
	}
	missing, reshaped := params(), params()
	delete(missing, "fc.b")
	reshaped["fc.b"] = tensor.New(1, 3)
	// A tensor on the wire is its own gob message of {Shape, Data}: these
	// two carry dimensions whose product still equals len(Data), the second
	// by wrapping round: (2³²+1)(2³²−1) = 2⁶⁴−1, squared ≡ 1.
	hostile := func(shape ...int) map[string]hostileTensor {
		m := map[string]hostileTensor{}
		for name, v := range params() {
			m[name] = hostileTensor{v.Shape(), v.Data()}
		}
		m["fc.b"] = hostileTensor{shape, make([]float64, 3)}
		return m
	}
	type hostileCheckpoint struct {
		Network string
		Params  map[string]hostileTensor
		Norm    InputNorm
	}
	// A checkpoint written before checkpoints recorded the normalisation.
	type oldCheckpoint struct {
		Network string
		Params  map[string]*tensor.Tensor
	}
	return map[string][]byte{
		"valid":         valid.Bytes(),
		"truncated":     valid.Bytes()[:valid.Len()/2],
		"wrong network": encode(checkpoint{Network: "other", Params: params(), Norm: testNorm}),
		"missing param": encode(checkpoint{Network: "small", Params: missing, Norm: testNorm}),
		"wrong shape":   encode(checkpoint{Network: "small", Params: reshaped, Norm: testNorm}),
		"negative dim":  encode(hostileCheckpoint{"small", hostile(-1, -3), testNorm}),
		"overflow dim":  encode(hostileCheckpoint{"small", hostile(1<<32+1, 1<<32-1, 1<<32+1, 1<<32-1, 3), testNorm}),
		"no norm":       encode(oldCheckpoint{Network: "small", Params: params()}),
		"zero std":      encode(checkpoint{Network: "small", Params: params(), Norm: InputNorm{Mean: 1}}),
		"nan norm":      encode(checkpoint{Network: "small", Params: params(), Norm: InputNorm{Mean: math.NaN(), Std: math.Inf(1)}}),
	}
}

// hostileTensor gob-encodes as a tensor does, with whatever shape it holds.
type hostileTensor struct {
	Shape []int
	Data  []float64
}

func (h hostileTensor) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(struct {
		Shape []int
		Data  []float64
	}{h.Shape, h.Data})
	return buf.Bytes(), err
}

func TestLoadRefusesMalformedFiles(t *testing.T) {
	for name, file := range loadSeeds(t) {
		net, before := smallNet(2), smallNet(2)
		norm, err := Load(net, bytes.NewReader(file))
		if (err == nil) != (name == "valid") {
			t.Errorf("%s file: Load error = %v", name, err)
		}
		if noNorm := name == "no norm" || name == "zero std" || name == "nan norm"; errors.Is(err, ErrNoInputNorm) != noNorm {
			t.Errorf("%s file: Load error = %v, ErrNoInputNorm wanted: %v", name, err, noNorm)
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

// FuzzLoad: a weight file is read from disk, so any bytes may arrive. Load
// must refuse them or load a complete set of well-shaped parameters and a
// usable normalisation — never panic — and what it allocates is bounded by
// the file's own size and one decoder chunk.
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
		// gob sizes a slice by its declared length only when that many
		// elements can still follow, one byte each at the least: 8 bytes
		// of float64 per input byte, doubled for slack. The fixed term is
		// gob's own: it reads a message into a buffer of the declared
		// length, up to a 10 MB chunk, before it finds the input shorter
		// (testdata/fuzz/FuzzLoad/message_length_5gb is six bytes long).
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 12<<20+16*uint64(len(file)) {
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
	})
}
