package core

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"shredder/internal/noisedist"
	"shredder/internal/tensor"
)

// Noise-file wire format.
//
// v1 (legacy): a bare gob stream of collectionWire{Shape, Members, InVivo}.
// Every file written before the fitted modes existed is v1, and plain
// additive stored collections are still written as v1 byte-for-byte, so
// old readers keep working on the common case.
//
// v2: the magic line below followed by a gob stream of noiseWireV2. v2
// carries everything v1 cannot: the mode tag, trained multiplicative
// weights, and fitted distribution parameters (noisedist.Fitted), so a
// fitted source round-trips without refitting. Decoding sniffs the magic
// to pick the version; v1 files (which start with a gob type definition,
// never with this ASCII line) are unambiguous.
const noiseMagicV2 = "shredder-noise/2\n"

// Typed decode errors. Wrap/inspect with errors.Is.
var (
	// ErrCollectionCorrupt reports a noise file that could not be decoded:
	// truncated, empty, or not a noise file at all.
	ErrCollectionCorrupt = errors.New("core: corrupt noise collection file")
	// ErrCollectionEmpty reports a structurally valid noise file with zero
	// members — loading it would build a collection whose Sample panics,
	// so the decoder rejects it up front.
	ErrCollectionEmpty = errors.New("core: noise collection has no members")
	// ErrNotStoredCollection reports a v2 fitted payload decoded through
	// DecodeCollection, which only yields stored collections; use
	// DecodeNoiseSource for mode-agnostic loading.
	ErrNotStoredCollection = errors.New("core: noise file holds a fitted source, not a stored collection")
)

// collectionWire is the legacy (v1) gob wire format.
type collectionWire struct {
	Shape   []int
	Members []*tensor.Tensor
	InVivo  []float64
}

// noiseWireV2 is the v2 gob payload, written after the magic line.
type noiseWireV2 struct {
	// Mode is ModeStored, ModeFitted, or ModeFittedMul.
	Mode  string
	Shape []int
	// Members/Weights/InVivo carry a stored collection (Weights only for
	// the multiplicative variant).
	Members []*tensor.Tensor
	Weights []*tensor.Tensor
	InVivo  []float64
	// Noise/Weight carry a fitted source's distribution parameters.
	Noise  *noisedist.Fitted
	Weight *noisedist.Fitted
}

// Encode writes the collection. Plain additive collections use the legacy
// v1 format byte-for-byte (old readers still work); multiplicative
// collections need v2 for their weight tensors.
func (c *Collection) Encode(w io.Writer) error {
	if c.Len() == 0 {
		return fmt.Errorf("%w: refusing to encode", ErrCollectionEmpty)
	}
	if !c.Multiplicative() {
		if err := gob.NewEncoder(w).Encode(collectionWire{c.Shape, c.Members, c.InVivo}); err != nil {
			return fmt.Errorf("core: encode collection: %w", err)
		}
		return nil
	}
	return encodeV2(w, noiseWireV2{
		Mode: ModeStored, Shape: c.Shape,
		Members: c.Members, Weights: c.Weights, InVivo: c.InVivo,
	})
}

// Encode writes the fitted source in the v2 format: distribution
// parameters only, no tensors beyond the order permutation.
func (c *FittedCollection) Encode(w io.Writer) error {
	if err := c.validate(); err != nil {
		return fmt.Errorf("core: encode fitted collection: %w", err)
	}
	return encodeV2(w, noiseWireV2{
		Mode: c.Mode(), Shape: c.Shape,
		InVivo: c.InVivo, Noise: c.Noise, Weight: c.Weight,
	})
}

func encodeV2(w io.Writer, wire noiseWireV2) error {
	if _, err := io.WriteString(w, noiseMagicV2); err != nil {
		return fmt.Errorf("core: encode noise file: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(wire); err != nil {
		return fmt.Errorf("core: encode noise file: %w", err)
	}
	return nil
}

// EncodeNoiseSource writes any noise source this package can decode again:
// stored collections in their native (v1-compatible) format, fitted
// sources in v2.
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
// It accepts v1 and v2 stored payloads and fails with typed errors:
// ErrCollectionCorrupt for truncated/garbage input, ErrCollectionEmpty for
// zero-member files (which previously decoded into a collection whose
// Sample panicked), and ErrNotStoredCollection for fitted v2 payloads.
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

// DecodeNoiseSource reads any noise file — legacy v1, v2 stored, or v2
// fitted — and returns the matching source. The error is typed: inspect
// with errors.Is(err, ErrCollectionCorrupt / ErrCollectionEmpty).
func DecodeNoiseSource(r io.Reader) (NoiseSource, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(len(noiseMagicV2))
	switch {
	case err == nil && bytes.Equal(magic, []byte(noiseMagicV2)):
		br.Discard(len(noiseMagicV2))
		return decodeV2(br)
	case err != nil && err != io.EOF && err != bufio.ErrBufferFull:
		return nil, fmt.Errorf("%w: %v", ErrCollectionCorrupt, err)
	}
	// Not the v2 magic (possibly a file shorter than it): legacy v1 gob.
	var wire collectionWire
	if err := gob.NewDecoder(br).Decode(&wire); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCollectionCorrupt, err)
	}
	c := &Collection{Shape: wire.Shape, Members: wire.Members, InVivo: wire.InVivo}
	if err := validateStored(c); err != nil {
		return nil, err
	}
	return c, nil
}

func decodeV2(r io.Reader) (NoiseSource, error) {
	var wire noiseWireV2
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCollectionCorrupt, err)
	}
	switch wire.Mode {
	case ModeStored:
		c := &Collection{Shape: wire.Shape, Members: wire.Members, Weights: wire.Weights, InVivo: wire.InVivo}
		if err := validateStored(c); err != nil {
			return nil, err
		}
		if len(c.Weights) > 0 && len(c.Weights) != len(c.Members) {
			return nil, fmt.Errorf("%w: %d weights for %d members", ErrCollectionCorrupt, len(c.Weights), len(c.Members))
		}
		for i, w := range c.Weights {
			if w == nil || !tensor.ShapeEq(w.Shape(), c.Shape) {
				return nil, fmt.Errorf("%w: weight %d shape mismatch", ErrCollectionCorrupt, i)
			}
		}
		return c, nil
	case ModeFitted, ModeFittedMul:
		fc := &FittedCollection{Shape: wire.Shape, Noise: wire.Noise, Weight: wire.Weight, InVivo: wire.InVivo}
		if wire.Mode == ModeFittedMul && fc.Weight == nil {
			return nil, fmt.Errorf("%w: fitted-mul payload without a weight distribution", ErrCollectionCorrupt)
		}
		if err := fc.validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCollectionCorrupt, err)
		}
		return fc, nil
	}
	return nil, fmt.Errorf("%w: unknown mode %q", ErrCollectionCorrupt, wire.Mode)
}

// validateStored guards the invariants Sample/Draw rely on.
func validateStored(c *Collection) error {
	if len(c.Members) == 0 {
		return ErrCollectionEmpty
	}
	if vol, ok := tensor.CheckedVolume(c.Shape); !ok || vol <= 0 {
		return fmt.Errorf("%w: invalid shape %v", ErrCollectionCorrupt, c.Shape)
	}
	for i, m := range c.Members {
		if m == nil || !tensor.ShapeEq(m.Shape(), c.Shape) {
			return fmt.Errorf("%w: member %d shape mismatch with %v", ErrCollectionCorrupt, i, c.Shape)
		}
	}
	return nil
}
