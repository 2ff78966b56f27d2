package quantize

import (
	"errors"
	"fmt"
	"slices"

	"shredder/internal/tensor"
	"shredder/internal/wire"
)

// The fused wire kernels: a value goes to its packed level, and a packed
// level to its value at the caller's element type, in one pass with no
// []uint16 of levels in between and no second pass to pack them. Tests pin
// each, byte for byte and bit for bit, to reference_test.go's two steps:
// AppendPacked to Pack(Quantize(x)), DequantizeInto to Dequantize(Unpack(…))
// and Dequantize32(Unpack(…)).

// ErrBadPayload reports a packed payload whose length is not what its shape
// needs at the scheme's bit width, or a shape no payload can have (a
// negative dimension, a volume beyond what the bytes could hold).
var ErrBadPayload = errors.New("quantize: packed payload does not match its shape")

// level is Quantize's value→level rule without math.Round: for t in (0,
// maxLevel) the nearest level, halves away from zero, is t truncated plus
// one when the exact remainder reaches a half.
func level(v, lo, step, maxLevel float64) uint32 {
	t := (v - lo) / step
	if !(t > 0) { // below the range, or NaN
		return 0
	}
	if t >= maxLevel {
		return uint32(maxLevel)
	}
	q := uint32(t)
	if t-float64(q) >= 0.5 {
		q++
	}
	return q
}

// AppendPacked quantizes x and appends the packed levels to dst, which may
// be a buffer kept from an earlier call: the bytes wire.AppendCoded codes
// for the wire.
func (s Scheme) AppendPacked(dst []byte, x []float64) []byte {
	if s.Bits < 1 || s.Bits > 16 {
		panic(fmt.Errorf("%w: pack bits %d", ErrBadBits, s.Bits))
	}
	start, need := len(dst), (len(x)*s.Bits+7)/8
	dst = slices.Grow(dst, need)[:start+need]
	out := dst[start:]
	step, maxLevel := s.step(), float64(s.Levels()-1)
	if s.Bits == 8 {
		for i, v := range x {
			out[i] = byte(level(v, s.Lo, step, maxLevel))
		}
		return dst
	}
	// Every byte of out is assigned, never or-ed into: a reused buffer
	// holds the previous payload.
	var acc uint32 // bits not yet written, lowest first
	held, pos := 0, 0
	for _, v := range x {
		acc |= uint32(level(v, s.Lo, step, maxLevel)) << held
		for held += s.Bits; held >= 8; held -= 8 {
			out[pos] = byte(acc)
			acc >>= 8
			pos++
		}
	}
	if held > 0 {
		out[pos] = byte(acc)
	}
	return dst
}

// QuantizePacked is AppendPacked into a fresh buffer of exactly WireBytes.
func (s Scheme) QuantizePacked(x *tensor.Tensor) []byte {
	return s.AppendPacked(make([]byte, 0, s.WireBytes(x.Len())), x.Data())
}

// DequantizeInto reconstructs len(dst) values from a packed payload straight
// into dst. The level→value arithmetic runs in float64 and is rounded once to
// dst's element type, so a float64 dst holds exactly what Dequantize returns
// and a float32 dst exactly what Dequantize32 does — which is also what
// narrowing the float64 reconstruction gives. The payload comes off the
// network: a wrong length is an error, never a panic.
func DequantizeInto[F tensor.Float](s Scheme, dst []F, packed []byte) error {
	if err := s.checkPacked(len(dst), packed); err != nil {
		return err
	}
	dequantize(s, dst, packed)
	return nil
}

// checkPacked is the one rule a packed payload of n values must meet.
func (s Scheme) checkPacked(n int, packed []byte) error {
	if s.Bits < 1 || s.Bits > 16 {
		return fmt.Errorf("%w: unpack bits %d", ErrBadBits, s.Bits)
	}
	// The first comparison keeps the product in the second from overflowing.
	if n > 8*len(packed) || len(packed) != (n*s.Bits+7)/8 {
		return fmt.Errorf("%w: %d bytes for %d values at %d bits", ErrBadPayload, len(packed), n, s.Bits)
	}
	return nil
}

// dequantize is DequantizeInto's kernel, for a payload already checked.
func dequantize[F tensor.Float](s Scheme, dst []F, packed []byte) {
	step := s.step()
	if s.Bits == 8 {
		var values [256]F
		for q := range values {
			values[q] = F(s.Lo + float64(q)*step)
		}
		dst = dst[:len(packed)]
		for i, q := range packed {
			dst[i] = values[q]
		}
		return
	}
	mask := uint32(1)<<s.Bits - 1
	var acc uint32 // bits read and not yet consumed, lowest first
	held, pos := 0, 0
	for i := range dst {
		for ; held < s.Bits; held += 8 {
			acc |= uint32(packed[pos]) << held
			pos++
		}
		dst[i] = F(s.Lo + float64(acc&mask)*step)
		acc >>= s.Bits
		held -= s.Bits
	}
}

// checkShaped checks a payload against the shape it claims, before anything
// is sized from that shape: a volume the bytes could not hold at one bit per
// value is refused while it is multiplied up.
func (s Scheme) checkShaped(packed []byte, shape []int) error {
	n, ok := wire.CheckedVolume(shape, 8*len(packed))
	if !ok {
		// Formatting a copy keeps the caller's variadic shape off the heap.
		return fmt.Errorf("%w: %d bytes for shape %v", ErrBadPayload, len(packed), append([]int(nil), shape...))
	}
	return s.checkPacked(n, packed)
}

// DequantizePacked reconstructs a wire payload as a float64 tensor.
func (s Scheme) DequantizePacked(packed []byte, shape ...int) (*tensor.Tensor, error) {
	return dequantizeShaped[float64](s, packed, shape)
}

// DequantizePacked32 reconstructs a wire payload as a float32 buffer: what a
// Float32-compiled cloud server feeds its plan, with no float64 intermediate.
func (s Scheme) DequantizePacked32(packed []byte, shape ...int) (*tensor.Tensor32, error) {
	return dequantizeShaped[float32](s, packed, shape)
}

// dequantizeShaped is DequantizePacked at element type F.
func dequantizeShaped[F tensor.Float](s Scheme, packed []byte, shape []int) (*tensor.Dense[F], error) {
	if err := s.checkShaped(packed, shape); err != nil {
		return nil, err
	}
	out := tensor.NewDense[F](shape...)
	dequantize(s, out.Data(), packed)
	return out, nil
}
