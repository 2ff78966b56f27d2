package tensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"slices"
)

// The artifact container: what a checkpoint (nn.Save) and a noise file
// (core.EncodeNoiseSource) are made of, and the float codec they share with
// the splitrt wire. A file is an ASCII magic line, then fields in a fixed
// order, all little-endian: u32 counts and dimensions, u16-length-prefixed
// names, raw 8-byte floats, raw 4-byte sketch knots and int32 orders. The
// Append functions write the fields; a Reader cuts them off the front of the
// file's bytes, and matches every declared count against the bytes that
// remain before its caller allocates from it (DESIGN §5k has the layouts).

// MaxRank is the most dimensions a shape in an artifact may declare.
const MaxRank = 8

// AppendFloats appends data to b as raw little-endian float64 words.
func AppendFloats(b []byte, data []float64) []byte {
	n := len(b)
	b = slices.Grow(b, 8*len(data))[:n+8*len(data)]
	for i, v := range data {
		binary.LittleEndian.PutUint64(b[n+8*i:], math.Float64bits(v))
	}
	return b
}

// DecodeFloats fills dst from the little-endian float64 words src starts
// with; src holds at least 8·len(dst) bytes.
func DecodeFloats(dst []float64, src []byte) {
	src = src[:8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// AppendName appends s behind its u16 length. Names are the program's own
// (a network, a parameter, a noise mode), so one the field cannot hold is a
// bug.
func AppendName(b []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		panic(fmt.Sprintf("tensor: name of %d bytes does not fit an artifact's u16 length", len(s)))
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// AppendShape appends shape as a u32 rank and that many u32 dimensions.
// Shapes are the program's own, so one the Reader would refuse is a bug.
func AppendShape(b []byte, shape []int) []byte {
	if len(shape) > MaxRank {
		panic(fmt.Sprintf("tensor: rank %d exceeds an artifact's limit of %d", len(shape), MaxRank))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(shape)))
	for _, d := range shape {
		if d < 0 || d > math.MaxInt32 {
			panic(fmt.Sprintf("tensor: dimension %d does not fit an artifact", d))
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(d))
	}
	return b
}

// ErrArtifact is what every Reader failure wraps: the bytes are not the
// artifact the magic line names, or the artifact contradicts itself.
var ErrArtifact = errors.New("tensor: malformed artifact")

// Reader cuts fields off the front of an artifact's bytes. The first failure
// sticks: every later call returns zero values, so a decoder reads a run of
// fields and checks Err once, before it uses any of them to allocate.
type Reader struct {
	b   []byte
	err error
}

// NewReader reads file, which must start with the magic line.
func NewReader(file []byte, magic string) *Reader {
	r := &Reader{b: file}
	if len(file) < len(magic) || string(file[:len(magic)]) != magic {
		r.fail("no %q header", magic)
		return r
	}
	r.b = file[len(magic):]
	return r
}

// Err is the first failure, nil while every field read so far was there.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrArtifact, fmt.Sprintf(format, args...))
	}
}

// Take cuts n items of size bytes each: the one place a declared extent
// meets the bytes present. The product is never formed before it is known to
// fit what remains.
func (r *Reader) Take(n, size int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || size < 0 || (size > 0 && n > len(r.b)/size) {
		r.fail("%d items of %d bytes declared with %d bytes left", n, size, len(r.b))
		return nil
	}
	p := r.b[:n*size]
	r.b = r.b[n*size:]
	return p
}

// U32 reads one u32.
func (r *Reader) U32() uint32 {
	if p := r.Take(1, 4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

// F64 reads one float64.
func (r *Reader) F64() float64 {
	if p := r.Take(1, 8); p != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(p))
	}
	return 0
}

// Count reads a u32 count of records of items × size bytes each (both
// positive) and fails unless that many can still follow, so the count is safe
// to allocate from: it is bounded by the bytes present, not by what they say.
// The record size is divided out, never multiplied up: no items × size wraps.
func (r *Reader) Count(items, size int) int {
	n := r.U32()
	if r.err == nil && uint64(n) > uint64(len(r.b)/size/items) {
		r.fail("%d records of %d × %d bytes declared with %d bytes left", n, items, size, len(r.b))
		return 0
	}
	return int(n)
}

// Name reads a u16-length-prefixed name; the result aliases the file.
func (r *Reader) Name() []byte {
	if p := r.Take(1, 2); p != nil {
		return r.Take(int(binary.LittleEndian.Uint16(p)), 1)
	}
	return nil
}

// Shape reads a rank and its dimensions and returns them with their volume.
// It fails for a rank above MaxRank, a dimension above MaxInt32 (a negative
// one, to a writer that stored an int32) and a volume that does not fit an
// int (CheckedVolume): the product cannot wrap round to a count the file
// does carry.
func (r *Reader) Shape() (shape []int, vol int) {
	rank := r.U32()
	if r.err == nil && rank > MaxRank {
		r.fail("rank %d exceeds %d", rank, MaxRank)
	}
	dims := r.Take(int(rank), 4)
	if r.err != nil {
		return nil, 0
	}
	shape = make([]int, rank)
	for i := range shape {
		d := binary.LittleEndian.Uint32(dims[4*i:])
		if d > math.MaxInt32 {
			r.fail("dimension %d is %d", i, d)
			return nil, 0
		}
		shape[i] = int(d)
	}
	vol, ok := CheckedVolume(shape)
	if !ok {
		r.fail("shape %v has no representable volume", shape)
		return nil, 0
	}
	return shape, vol
}

// Close reports the first failure, or that bytes follow the last field: an
// artifact has one spelling, and it ends where its fields do.
func (r *Reader) Close() error {
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d bytes after the last field", len(r.b))
	}
	return r.err
}

// ReadAll reads r to its end. A reader that can say how much it holds (a
// bytes.Reader or Buffer, a file) is read into one buffer of that size, the
// way os.ReadFile does it; the hint only sizes the first buffer, so a wrong
// one costs a copy, never a wrong result.
func ReadAll(r io.Reader) ([]byte, error) {
	size := 0
	switch v := r.(type) {
	case interface{ Len() int }:
		size = v.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() && fi.Size() < math.MaxInt32 {
			size = int(fi.Size())
		}
	}
	// One byte past the hint, so the read that finds EOF has room to fail in.
	buf := make([]byte, 0, max(size, 511)+1)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
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
