package nn

import (
	"fmt"
	"strings"
)

// Dtype selects the element type a compiled inference plan runs on. Float64
// is the reference precision everything else in the system uses (training
// plans: pre-training, noise learning); Float32 is the reduced-precision
// inference dtype: half the memory traffic per element, with activations
// within a documented epsilon of the float64 path and identical
// classification decisions (see DESIGN.md §5f).
type Dtype int

const (
	// Float64 runs the compiled plan at reference precision — the default
	// (zero value) everywhere a dtype is optional. Its outputs are bitwise
	// identical to a training plan's forward pass in inference mode (see the
	// equality policy in compile.go).
	Float64 Dtype = iota
	// Float32 runs the compiled plan at reduced precision: weights are
	// converted once at compile time and every intermediate buffer holds
	// float32.
	Float32
)

// String returns the canonical spelling ("float64", "float32").
func (d Dtype) String() string {
	switch d {
	case Float64:
		return "float64"
	case Float32:
		return "float32"
	}
	return fmt.Sprintf("Dtype(%d)", int(d))
}

// Short returns the compact tag used in profiler labels ("f64", "f32").
func (d Dtype) Short() string {
	if d == Float32 {
		return "f32"
	}
	return "f64"
}

// Size returns the element size in bytes.
func (d Dtype) Size() int {
	if d == Float32 {
		return 4
	}
	return 8
}

// ParseDtype parses a dtype name as accepted by the -dtype command-line
// knob: "float64"/"f64" and "float32"/"f32", case-insensitively.
func ParseDtype(s string) (Dtype, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "float64", "f64", "fp64", "double":
		return Float64, nil
	case "float32", "f32", "fp32", "single":
		return Float32, nil
	}
	return Float64, fmt.Errorf("nn: unknown dtype %q (want float64/f64 or float32/f32)", s)
}
