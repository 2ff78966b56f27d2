package tensor

import (
	"syscall"
	"testing"
	"unsafe"
)

// guardedArena maps room for n elements followed by one page nothing may
// touch, and returns tail: tail(k) is the last k elements before that page,
// so reading one element past it is a SIGSEGV, not a silently wrong lane.
func guardedArena[F Float | int32](t *testing.T, n int) (tail func(k int) []F) {
	t.Helper()
	var zero F
	page := syscall.Getpagesize()
	size := (n*int(unsafe.Sizeof(zero)) + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Errorf("munmap: %v", err)
		}
	})
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	all := unsafe.Slice((*F)(unsafe.Pointer(&mem[0])), size/int(unsafe.Sizeof(zero)))
	return func(k int) []F { return all[len(all)-k:] }
}

// guardedCopy moves src to the end of an arena.
func guardedCopy[F any](tail func(k int) []F, src []F) []F {
	dst := tail(len(src))
	copy(dst, src)
	return dst
}

func checkGuarded[F Float](t *testing.T, image, weights func(int) []F, table func(int) []int32) {
	check := func(what string, got, want []F) {
		t.Helper()
		for i, v := range got {
			if !sameBits(v, want[i]) {
				t.Fatalf("%s, %T: output %d is %v beside the guard page, %v away from it", what, v, i, v, want[i])
			}
		}
	}
	convSweep(true, func(c convCase, variant int) {
		ep := testEpilogue[F](NewRNG(int64(variant)), c.outC, variant)
		p, taps := Pack(c.w, ep), c.g.Taps()
		x := ToDense[F](c.x).Data()
		want, got := make([]F, c.outC*c.g.OutH()*c.g.OutW()), make([]F, c.outC*c.g.OutH()*c.g.OutW())
		p.Conv(want, x, make([]F, taps.Scratch), taps)

		// What the leaf reads — the (padded) image, the panels, the offset
		// table — each ends where the guard page starts.
		p.panels = guardedCopy(weights, p.panels)
		guardedTaps := *taps
		guardedTaps.off = guardedCopy(table, taps.off)
		scratch := image(taps.Scratch) // ends with the padded image, when there is one
		if c.g.Pad == 0 {
			x, scratch = guardedCopy(image, x), make([]F, taps.Scratch)
		}
		p.Conv(got, x, scratch, &guardedTaps)
		check(c.String(), got, want)
	})
	for _, n := range []int{1, 8, 10, 17, 33, 120} {
		for _, k := range []int{1, 7, 400} {
			rng := NewRNG(int64(n + k))
			p := Pack(rng.FillNormal(New(n, k), 0, 1), testEpilogue[F](rng, n, k))
			x := ToDense[F](rng.FillNormal(New(k), 0, 1)).Data()
			want, got := make([]F, n), make([]F, n)
			p.Linear(want, x, make([]F, LinearScratch))
			p.panels, p.seq = guardedCopy(weights, p.panels), guardedCopy(table, p.seq)
			p.Linear(got, guardedCopy(image, x), make([]F, LinearScratch))
			check("linear", got, want)
		}
	}
}

// TestVectorLeafReadsNothingPastItsInputs runs every ragged case of the
// sweep — rows that do not fill the leaf, a partial last panel, stride 2 —
// and the linear widths through the vector leaf with each of its three
// inputs laid flush against an unmapped page. The kernel's scratch is sized
// to the padded image exactly, with no slack for a ragged row: the rows a
// leaf call does not need recompute the last one it does.
func TestVectorLeafReadsNothingPastItsInputs(t *testing.T) {
	if !vectorLeaf {
		t.Skip("no vector leaf on this machine")
	}
	const room = 1 << 16 // elements: the sweep's largest panels are 15·400·8
	table := guardedArena[int32](t, room)
	checkGuarded(t, guardedArena[float64](t, room), guardedArena[float64](t, room), table)
	checkGuarded(t, guardedArena[float32](t, room), guardedArena[float32](t, room), table)
}
