package quantize

import (
	"fmt"
	"math"

	"shredder/internal/tensor"
)

// The two-step reference the fused wire kernels (packed.go) are pinned to,
// byte for byte and bit for bit: a value to its level, levels to their
// packed bytes, and back. Nothing outside the tests runs it.

// Quantize maps values to level indices, clipping to the range.
func (s Scheme) Quantize(x *tensor.Tensor) []uint16 {
	out := make([]uint16, x.Len())
	step := s.step()
	maxLevel := float64(s.Levels() - 1)
	for i, v := range x.Data() {
		q := math.Round((v - s.Lo) / step)
		if !(q >= 0) {
			// Below the range — or NaN, which has no nearest level and must
			// not reach the wire as whatever a float→integer conversion
			// makes of it on this platform.
			q = 0
		}
		if q > maxLevel {
			q = maxLevel
		}
		out[i] = uint16(q)
	}
	return out
}

// Dequantize reconstructs values from level indices into the given shape.
func (s Scheme) Dequantize(levels []uint16, shape ...int) *tensor.Tensor {
	out := tensor.New(shape...)
	step := s.step()
	d := out.Data()
	for i, q := range levels {
		d[i] = s.Lo + float64(q)*step
	}
	return out
}

// Dequantize32 reconstructs values from level indices directly into a
// float32 buffer — the zero-copy entry to a compiled Float32 inference
// plan. The level→value arithmetic runs in float64 (matching Dequantize)
// with a single final rounding to float32, so the result is exactly the
// float32 rounding of the float64 reconstruction.
func (s Scheme) Dequantize32(levels []uint16, shape ...int) *tensor.Tensor32 {
	out := tensor.NewDense[float32](shape...)
	step := s.step()
	d := out.Data()
	for i, q := range levels {
		d[i] = float32(s.Lo + float64(q)*step)
	}
	return out
}

// RoundTrip quantizes and dequantizes in one step — the wire simulation.
func (s Scheme) RoundTrip(x *tensor.Tensor) *tensor.Tensor {
	return s.Dequantize(s.Quantize(x), x.Shape()...)
}

// Pack tightens level indices to bits bits each in little-endian bit order,
// producing the WireBytes-sized representation the splitrt protocol ships.
// Levels must fit in bits bits (Quantize guarantees this for its output).
func Pack(levels []uint16, bits int) []byte {
	if bits < 1 || bits > 16 {
		panic(fmt.Errorf("%w: pack bits %d", ErrBadBits, bits))
	}
	out := make([]byte, (len(levels)*bits+7)/8)
	max := uint32(1)<<bits - 1
	bitPos := 0
	for _, lv := range levels {
		v := uint32(lv)
		if v > max {
			panic(fmt.Errorf("quantize: level %d does not fit in %d bits", lv, bits))
		}
		byteIdx, off := bitPos/8, bitPos%8
		// A value spans at most 3 bytes (16 bits starting mid-byte).
		wide := v << off
		out[byteIdx] |= byte(wide)
		if off+bits > 8 {
			out[byteIdx+1] |= byte(wide >> 8)
		}
		if off+bits > 16 {
			out[byteIdx+2] |= byte(wide >> 16)
		}
		bitPos += bits
	}
	return out
}

// Unpack reverses Pack, reading n levels of bits bits each. It returns an
// error (not a panic) on short input, because packed payloads arrive from
// the network and malformed ones must not crash a server.
func Unpack(packed []byte, bits, n int) ([]uint16, error) {
	if bits < 1 || bits > 16 {
		return nil, fmt.Errorf("%w: unpack bits %d", ErrBadBits, bits)
	}
	if n < 0 {
		return nil, fmt.Errorf("quantize: unpack count %d negative", n)
	}
	need := (n*bits + 7) / 8
	if n > 8*len(packed) || len(packed) != need { // the first comparison catches a product that overflowed
		return nil, fmt.Errorf("quantize: packed payload is %d bytes, %d levels at %d bits need %d",
			len(packed), n, bits, need)
	}
	out := make([]uint16, n)
	mask := uint32(1)<<bits - 1
	bitPos := 0
	for i := range out {
		byteIdx, off := bitPos/8, bitPos%8
		wide := uint32(packed[byteIdx])
		if byteIdx+1 < len(packed) {
			wide |= uint32(packed[byteIdx+1]) << 8
		}
		if byteIdx+2 < len(packed) {
			wide |= uint32(packed[byteIdx+2]) << 16
		}
		out[i] = uint16((wide >> off) & mask)
		bitPos += bits
	}
	return out, nil
}
