package tensor

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
)

// wireTensor is the gob wire representation of a Tensor. Kept separate from
// the Tensor struct so the in-memory layout can evolve without breaking
// saved checkpoints.
type wireTensor struct {
	Shape []int
	Data  []float64
}

// Encode writes t to w in gob format.
func (t *Tensor) Encode(w io.Writer) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(wireTensor{Shape: t.shape, Data: t.data}); err != nil {
		return fmt.Errorf("tensor: encode: %w", err)
	}
	return nil
}

// Decode reads a tensor previously written with Encode.
func Decode(r io.Reader) (*Tensor, error) {
	dec := gob.NewDecoder(r)
	var wt wireTensor
	if err := dec.Decode(&wt); err != nil {
		return nil, fmt.Errorf("tensor: decode: %w", err)
	}
	vol, ok := CheckedVolume(wt.Shape)
	if !ok {
		return nil, fmt.Errorf("tensor: decode: invalid shape %v", wt.Shape)
	}
	if vol != len(wt.Data) {
		return nil, fmt.Errorf("tensor: decode: shape %v does not match %d elements", wt.Shape, len(wt.Data))
	}
	return From(wt.Data, wt.Shape...), nil
}

// CheckedVolume is Volume for a shape that came from outside the program. A
// file can hold any integers as a shape: ok is false for a negative
// dimension and for dimensions whose product does not fit an int (it would
// wrap round, possibly to the very element count the file carries).
func CheckedVolume(shape []int) (vol int, ok bool) {
	vol = 1
	for _, d := range shape {
		if d < 0 || (d > 0 && vol > math.MaxInt/d) {
			return 0, false
		}
		vol *= d
	}
	return vol, true
}

// GobEncode implements gob.GobEncoder so tensors can be embedded in larger
// gob-encoded structures (e.g. the splitrt wire protocol).
func (t *Tensor) GobEncode() ([]byte, error) {
	var buf writerBuffer
	if err := t.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.b, nil
}

// GobDecode implements gob.GobDecoder.
func (t *Tensor) GobDecode(p []byte) error {
	dt, err := Decode(&readerBuffer{b: p})
	if err != nil {
		return err
	}
	t.setShape(dt.shape)
	t.data = dt.data
	return nil
}

type writerBuffer struct{ b []byte }

func (w *writerBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

type readerBuffer struct {
	b []byte
	i int
}

func (r *readerBuffer) Read(p []byte) (int, error) {
	if r.i >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.i:])
	r.i += n
	return n, nil
}
