package obs

// Ring keeps the last n values of a numbered sequence: value k, the k-th
// pushed counting from 0, lives in slot k mod n until value k+n takes the
// slot. A slot keeps what the value that left it held, so a caller that
// writes into the slice buffers it finds there reuses them. Slots are added
// as values arrive, up to n: a ring nothing was pushed to holds nothing.
//
// A Ring has no lock: its owner serialises access, and a slot returned by
// Push or At is valid until the next Push.
type Ring[T any] struct {
	slots []T
	n     int
	total uint64
}

// MakeRing returns an empty ring of n slots (n < 1 is clamped to 1).
func MakeRing[T any](n int) Ring[T] { return Ring[T]{n: max(n, 1)} }

// Push makes room for the next value and returns its slot and number k.
// Once the ring is full the slot is the one of value k-n, which it still
// holds.
func (r *Ring[T]) Push() (*T, uint64) {
	k := r.total
	r.total++
	if len(r.slots) < r.n {
		if len(r.slots) == cap(r.slots) {
			grown := make([]T, len(r.slots), min(r.n, 2*len(r.slots)+1))
			copy(grown, r.slots)
			r.slots = grown
		}
		r.slots = r.slots[:len(r.slots)+1]
	}
	return &r.slots[k%uint64(r.n)], k
}

// At returns the slot of value k, or nil when k has been evicted or not yet
// pushed.
func (r *Ring[T]) At(k uint64) *T {
	if k >= r.total || k < r.Oldest() {
		return nil
	}
	return &r.slots[k%uint64(r.n)]
}

// Oldest is the number of the oldest value held.
func (r *Ring[T]) Oldest() uint64 { return r.total - uint64(len(r.slots)) }

// Len is how many values the ring holds.
func (r *Ring[T]) Len() int { return len(r.slots) }

// Total is how many values were ever pushed, evicted ones included: the
// number the next value gets.
func (r *Ring[T]) Total() uint64 { return r.total }
