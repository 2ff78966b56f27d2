// Package lib is the fixture of TestScanFixture: each identifier's comment
// says whether the scan reports it.
package lib

// Used is called by app: not a hit.
func Used() int { return helper() }

// helper is called by Used: not a hit.
func helper() int { return 1 }

// TestOnly is called by lib_test.go alone: a hit.
func TestOnly() {}

// unused is called by nothing: a hit.
func unused() {}

// recursive calls only itself: a hit.
func recursive(n int) int {
	if n == 0 {
		return 0
	}
	return recursive(n - 1)
}

// onlyExcluded is called by excluded.go alone, which the build context
// leaves out: a hit.
func onlyExcluded() {}

// Far is called by the caller module alone: not a hit, but listed as
// reached from the caller module only.
func Far() int { return 2 }

// T is printed by app. Nothing calls String, but it implements
// fmt.Stringer, an interface of a standard package the module imports:
// not a hit.
type T struct{}

func (T) String() string { return "t" }

// Shape is an interface declared in the module.
type Shape interface{ Area() float64 }

// Square is built by NewShape. Area is called through Shape alone: not a
// hit.
type Square struct{ side float64 }

func (s Square) Area() float64 { return s.side * s.side }

// NewShape is called by app.
func NewShape() Shape { return Square{side: 1} }

// Box is generic. app calls Get through Box[int]: not a hit. Put is called
// by nothing: a hit.
type Box[V any] struct{ v V }

func (b Box[V]) Get() V { return b.v }

func (b *Box[V]) Put(v V) { b.v = v }
