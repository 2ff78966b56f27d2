package nn

import (
	"testing"
	_ "unsafe" // for go:linkname
)

// vectorLeaf is internal/tensor's switch between the direct kernel's vector
// leaf and its Go leaf: set at init where the CPU has the former, cleared only
// by tests. It is reached by name because the plans' bitwise pins live in
// this package and must hold under both leaves, and a setter would be an
// option of the tensor package that only tests may use.
//
//go:linkname vectorLeaf shredder/internal/tensor.vectorLeaf
var vectorLeaf bool

// UnderEachLeaf runs f under the leaf the process chose and, where that is
// the vector leaf, again under the Go leaf. f and the tests it starts must
// have finished when it returns (no t.Parallel): the switch is a plain
// variable.
func UnderEachLeaf(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	f(t)
	if !vectorLeaf {
		t.Log("no vector leaf on this machine: the Go leaf alone ran")
		return
	}
	vectorLeaf = false
	defer func() { vectorLeaf = true }()
	f(t)
}
