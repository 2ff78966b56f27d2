// Package quantize implements linear activation quantization for the
// edge→cloud wire. The paper's communication cost model assumes dense
// float activations; quantizing the (noisy) activation to 8 or fewer bits
// shrinks the transmitted volume by 4-8× on top of Shredder's privacy, at
// a measurable accuracy cost that the benchmark harness ablates.
//
// Quantization is also privacy-relevant: it is a deterministic
// data-processing step, so by the data-processing inequality it can only
// reduce the mutual information between the input and what the cloud sees.
package quantize

import (
	"errors"
	"fmt"
	"math"

	"shredder/internal/tensor"
)

// ErrBadBits reports a bit width outside [1, 16]. Callers branching on the
// failure mode (CLI flag validation vs. wire handshake rejection) test with
// errors.Is.
var ErrBadBits = errors.New("quantize: bits out of [1,16]")

// ErrBadRange reports a clipping range that spans nothing: Hi <= Lo
// (including the degenerate Lo == Hi), or a NaN endpoint.
var ErrBadRange = errors.New("quantize: invalid clipping range")

// Scheme is a symmetric linear quantizer with a fixed bit width.
type Scheme struct {
	// Bits per value, in [1, 16]. One bit is the extreme sign-like
	// quantizer (two levels: Lo and Hi).
	Bits int
	// Lo and Hi are the clipping range the levels span.
	Lo, Hi float64
}

// NewScheme builds a quantizer covering [lo, hi] with 2^bits levels.
func NewScheme(bits int, lo, hi float64) (Scheme, error) {
	if bits < 1 || bits > 16 {
		return Scheme{}, fmt.Errorf("%w: %d", ErrBadBits, bits)
	}
	if !(hi > lo) {
		return Scheme{}, fmt.Errorf("%w: [%v, %v]", ErrBadRange, lo, hi)
	}
	return Scheme{Bits: bits, Lo: lo, Hi: hi}, nil
}

// Fit chooses a clipping range covering the central mass of the samples:
// [µ−kσ, µ+kσ] with k = 4, clamped to the observed min/max. It reads the
// sample twice — sum, min and max, then the squared deviations — and gives
// the bits of the tensor's Mean, Std, Min and Max, which read it five times.
// An empty sample has no range and panics, as Min does.
func Fit(sample *tensor.Tensor, bits int) (Scheme, error) {
	d := sample.Data()
	if len(d) == 0 {
		panic("quantize: Fit of an empty sample")
	}
	sum, minV, maxV := 0.0, d[0], d[0]
	for _, v := range d {
		sum += v
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	mean := sum / float64(len(d))
	dev := 0.0
	for _, v := range d {
		dv := v - mean
		dev += dv * dv
	}
	std := math.Sqrt(dev / float64(len(d)))
	lo := math.Max(minV, mean-4*std)
	hi := math.Min(maxV, mean+4*std)
	if hi <= lo {
		hi = lo + 1e-9
	}
	return NewScheme(bits, lo, hi)
}

// Levels returns the number of representable values.
func (s Scheme) Levels() int { return 1 << s.Bits }

// step returns the quantization step size.
func (s Scheme) step() float64 { return (s.Hi - s.Lo) / float64(s.Levels()-1) }

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

// MaxError returns the worst-case reconstruction error for in-range
// values: half the step size.
func (s Scheme) MaxError() float64 { return s.step() / 2 }

// WireBytes returns the transmitted size of n values under this scheme
// (levels packed at Bits bits each, rounded up to whole bytes).
func (s Scheme) WireBytes(n int) int64 {
	return int64((n*s.Bits + 7) / 8)
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

// MSE returns the mean squared reconstruction error of a round trip.
func (s Scheme) MSE(x *tensor.Tensor) float64 {
	rt := s.RoundTrip(x)
	d := tensor.Sub(rt, x)
	return d.SqSum() / float64(d.Len())
}
