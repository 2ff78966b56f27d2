package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"shredder/internal/noisedist"
	"shredder/internal/tensor"
	"shredder/internal/wire"
)

// The noise file: the artifact container of package wire (DESIGN §5k
// has the byte-layout table). After the magic line,
//
//	name   mode: "stored", "fitted" or "fitted-mul"
//	shape  the per-sample activation shape
//	u32 n, n × f64   the members' recorded in vivo privacy
//
// then, for a stored collection, u32 K and K members of volume f64 each,
// u32 0 or K and as many multiplicative weights; for a fitted source, the
// noise distribution and — fitted-mul — the weight distribution, each
//
//	u32 kind, u32 K, u32 knots
//	K × (f64 loc, f64 scale)
//	K × knots × f32    the quantile sketches
//	K × volume × i32   the orders
//
// One format, one spelling: a file this decoder accepts re-encodes to the
// same bytes, and a file of the gob formats that came before is refused.
const noiseMagic = "shredder-noise/3\n"

// Typed decode errors. Wrap/inspect with errors.Is.
var (
	// ErrCollectionCorrupt reports a noise file that could not be decoded:
	// truncated, empty, self-contradictory, holding a value that is not a
	// finite number, or not a noise file of this format at all.
	ErrCollectionCorrupt = errors.New("core: corrupt noise collection file")
	// ErrCollectionEmpty reports a structurally valid noise file with zero
	// members — loading it would build a collection whose Sample panics,
	// so the decoder rejects it up front.
	ErrCollectionEmpty = errors.New("core: noise collection has no members")
	// ErrNotStoredCollection reports a fitted payload decoded through
	// DecodeCollection, which only yields stored collections; use
	// DecodeNoiseSource for mode-agnostic loading.
	ErrNotStoredCollection = errors.New("core: noise file holds a fitted source, not a stored collection")
)

// beginNoise starts a noise file of the given mode with room for size more
// bytes: everything up to the mode's own payload.
func beginNoise(mode string, shape []int, inVivo []float64, size int) []byte {
	b := make([]byte, 0, len(noiseMagic)+2+len(mode)+4+4*len(shape)+4+8*len(inVivo)+size)
	b = append(b, noiseMagic...)
	b = wire.AppendName(b, mode)
	b = wire.AppendShape(b, shape)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(inVivo)))
	return wire.AppendFloats(b, inVivo)
}

func appendTensors(b []byte, ts []*tensor.Tensor) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ts)))
	for _, t := range ts {
		b = wire.AppendFloats(b, t.Data())
	}
	return b
}

// Encode writes the collection, which must be one the decoder accepts.
func (c *Collection) Encode(w io.Writer) error {
	if err := c.validate(); err != nil {
		return fmt.Errorf("core: encode collection: %w", err)
	}
	vol := tensor.Volume(c.Shape)
	b := beginNoise(ModeStored, c.Shape, c.InVivo, 8+8*vol*(len(c.Members)+len(c.Weights)))
	b = appendTensors(b, c.Members)
	b = appendTensors(b, c.Weights)
	return writeNoise(w, b)
}

// Encode writes the fitted source: distribution parameters only, no tensors
// beyond the order permutation.
func (c *FittedCollection) Encode(w io.Writer) error {
	if err := c.validate(); err != nil {
		return fmt.Errorf("core: encode fitted collection: %w", err)
	}
	b := beginNoise(c.Mode(), c.Shape, c.InVivo, c.MemoryBytes()+2*12)
	b = appendFitted(b, c.Noise)
	if c.Weight != nil {
		b = appendFitted(b, c.Weight)
	}
	return writeNoise(w, b)
}

// appendFitted appends a distribution that has passed Validate: its sketches
// are there, and all of one length.
func appendFitted(b []byte, f *noisedist.Fitted) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(f.Kind))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(f.Comps)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(f.Sketches[0])))
	for _, c := range f.Comps {
		b = wire.AppendFloats(b, []float64{c.Loc, c.Scale})
	}
	for _, s := range f.Sketches {
		for _, q := range s {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(q))
		}
	}
	for _, o := range f.Orders {
		for _, i := range o {
			b = binary.LittleEndian.AppendUint32(b, uint32(i))
		}
	}
	return b
}

func writeNoise(w io.Writer, b []byte) error {
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("core: encode noise file: %w", err)
	}
	return nil
}

// EncodeNoiseSource writes any noise source this package can decode again.
func EncodeNoiseSource(w io.Writer, src NoiseSource) error {
	switch s := src.(type) {
	case *Collection:
		return s.Encode(w)
	case *FittedCollection:
		return s.Encode(w)
	}
	return fmt.Errorf("core: cannot encode noise source of type %T", src)
}

// DecodeCollection reads a stored collection written by Collection.Encode.
// It fails with typed errors: ErrCollectionCorrupt for truncated/garbage
// input, ErrCollectionEmpty for zero-member files and ErrNotStoredCollection
// for fitted payloads.
func DecodeCollection(r io.Reader) (*Collection, error) {
	src, err := DecodeNoiseSource(r)
	if err != nil {
		return nil, err
	}
	col, ok := src.(*Collection)
	if !ok {
		return nil, fmt.Errorf("%w (mode %q)", ErrNotStoredCollection, src.Mode())
	}
	return col, nil
}

// DecodeNoiseSource reads a noise file, stored or fitted, and returns the
// matching source. The file is read once; every declared count is matched
// against the bytes that remain before anything is allocated from it, so
// what a decode allocates is bounded by the file's real length. The error is
// typed: inspect with errors.Is(err, ErrCollectionCorrupt / ErrCollectionEmpty).
func DecodeNoiseSource(r io.Reader) (NoiseSource, error) {
	file, err := wire.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCollectionCorrupt, err)
	}
	rd := wire.NewReader(file, noiseMagic)
	if rd.Err() != nil {
		return nil, fmt.Errorf("%w: %v (the noise file format changed: a file written before it is not read — re-run train-noise)",
			ErrCollectionCorrupt, rd.Err())
	}
	mode := string(rd.Name())
	shape, vol := rd.Shape()
	inVivo := decodeFloats(rd, rd.Count(1, 8))
	if rd.Err() != nil {
		return nil, fmt.Errorf("%w: %v", ErrCollectionCorrupt, rd.Err())
	}
	if vol <= 0 {
		return nil, fmt.Errorf("%w: invalid shape %v", ErrCollectionCorrupt, shape)
	}
	var src interface {
		NoiseSource
		validate() error
	}
	switch mode {
	case ModeStored:
		c := &Collection{Shape: shape, InVivo: inVivo}
		c.Members = decodeTensors(rd, shape, vol)
		c.Weights = decodeTensors(rd, shape, vol)
		src = c
	case ModeFitted, ModeFittedMul:
		fc := &FittedCollection{Shape: shape, InVivo: inVivo}
		fc.Noise = decodeFitted(rd, shape, vol)
		if mode == ModeFittedMul {
			fc.Weight = decodeFitted(rd, shape, vol)
		}
		src = fc
	default:
		return nil, fmt.Errorf("%w: unknown mode %q", ErrCollectionCorrupt, mode)
	}
	// A read that failed left its source short: only a file read to its end,
	// and ending there, is worth validating.
	if err := rd.Close(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCollectionCorrupt, err)
	}
	if err := src.validate(); err != nil {
		return nil, err
	}
	return src, nil
}

// decodeFloats reads n float64 values; rd has vouched for their extent.
func decodeFloats(rd *wire.Reader, n int) []float64 {
	p := rd.Take(n, 8)
	if n == 0 || p == nil {
		return nil
	}
	out := make([]float64, n)
	wire.DecodeFloats(out, p)
	return out
}

// decodeTensors reads a count and that many tensors of the given shape,
// each converted straight into its own storage.
func decodeTensors(rd *wire.Reader, shape []int, vol int) []*tensor.Tensor {
	n := rd.Count(vol, 8)
	if n == 0 {
		return nil
	}
	ts := make([]*tensor.Tensor, n)
	for i := range ts {
		ts[i] = tensor.New(shape...)
		wire.DecodeFloats(ts[i].Data(), rd.Take(vol, 8))
	}
	return ts
}

// decodeFitted reads one fitted distribution over shape; nil once rd has
// failed. Validation is the caller's (FittedCollection.validate).
func decodeFitted(rd *wire.Reader, shape []int, vol int) *noisedist.Fitted {
	kind := rd.U32()
	k, knots := rd.Count(1, 16), rd.Count(1, 4)
	comps := rd.Take(k, 16)
	if rd.Err() != nil {
		return nil
	}
	f := &noisedist.Fitted{
		Kind:     noisedist.Kind(kind),
		Shape:    shape,
		Comps:    make([]noisedist.Component, k),
		Sketches: make([][]float32, k),
		Orders:   make([][]int32, k),
	}
	for i := range f.Comps {
		var c [2]float64
		wire.DecodeFloats(c[:], comps[16*i:])
		f.Comps[i] = noisedist.Component{Loc: c[0], Scale: c[1]}
	}
	for i := range f.Sketches {
		p := rd.Take(knots, 4)
		if rd.Err() != nil {
			return nil
		}
		f.Sketches[i] = make([]float32, knots)
		for j := range f.Sketches[i] {
			f.Sketches[i][j] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*j:]))
		}
	}
	for i := range f.Orders {
		p := rd.Take(vol, 4)
		if rd.Err() != nil {
			return nil
		}
		f.Orders[i] = make([]int32, vol)
		for j := range f.Orders[i] {
			f.Orders[i][j] = int32(binary.LittleEndian.Uint32(p[4*j:]))
		}
	}
	return f
}

// validate guards the invariants Sample/Draw rely on, for a collection about
// to be written as for one just read: members, a shape they all have, no
// weights or one per member, and nothing that is not a finite number —
// stored mode serves these values as they are, and the fitted modes sort
// them.
func (c *Collection) validate() error {
	if len(c.Members) == 0 {
		return ErrCollectionEmpty
	}
	if vol, ok := wire.CheckedVolume(c.Shape, math.MaxInt); !ok || vol <= 0 {
		return fmt.Errorf("%w: invalid shape %v", ErrCollectionCorrupt, c.Shape)
	}
	if len(c.Weights) > 0 && len(c.Weights) != len(c.Members) {
		return fmt.Errorf("%w: %d weights for %d members", ErrCollectionCorrupt, len(c.Weights), len(c.Members))
	}
	for _, ts := range []struct {
		kind    string
		tensors []*tensor.Tensor
	}{{"member", c.Members}, {"weight", c.Weights}} {
		for i, t := range ts.tensors {
			if t == nil || !tensor.ShapeEq(t.Shape(), c.Shape) {
				return fmt.Errorf("%w: %s %d shape mismatch with %v", ErrCollectionCorrupt, ts.kind, i, c.Shape)
			}
			if !allFinite(t.Data()) {
				return fmt.Errorf("%w: %s %d holds a value that is not a finite number", ErrCollectionCorrupt, ts.kind, i)
			}
		}
	}
	if !allFinite(c.InVivo) {
		return fmt.Errorf("%w: an in vivo value is not a finite number", ErrCollectionCorrupt)
	}
	return nil
}

// allFinite reports whether vals holds no NaN and no infinity.
func allFinite(vals []float64) bool {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
