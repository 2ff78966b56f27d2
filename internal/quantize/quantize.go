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

// WireBytes returns the transmitted size of n values under this scheme
// (levels packed at Bits bits each, rounded up to whole bytes).
func (s Scheme) WireBytes(n int) int64 {
	return int64((n*s.Bits + 7) / 8)
}
