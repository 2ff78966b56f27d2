package obs

// Ring's numbering, eviction and growth; and the span ring's slots, which
// keep the storage of their stages and annotations (SpanRing.Record): what a
// warm Record allocates, and that a snapshot does not see the slots move on.

import (
	"sync"
	"testing"
	"time"

	"shredder/internal/race"
)

// TestRingNumbersEvictsAndGrows: value k lives in slot k mod n; At answers
// for the last n values only, nil for evicted and future ones; the ring
// grows as values arrive, to n slots and no further; and a slot a value
// takes still holds the value it evicts.
func TestRingNumbersEvictsAndGrows(t *testing.T) {
	const n = 5
	r := MakeRing[[]int](n)
	if r.Len() != 0 || r.At(0) != nil || cap(r.slots) != 0 {
		t.Fatalf("an empty ring holds something: len %d, cap %d", r.Len(), cap(r.slots))
	}
	for k := uint64(0); k < 3*n+2; k++ {
		slot, got := r.Push()
		if got != k {
			t.Fatalf("push %d numbered %d", k, got)
		}
		if k >= n && (len(*slot) != 1 || (*slot)[0] != int(k-n)) {
			t.Fatalf("value %d's slot holds %v, want value %d it evicts", k, *slot, k-n)
		}
		*slot = append((*slot)[:0], int(k))
		if want := min(int(k)+1, n); r.Len() != want || cap(r.slots) > n {
			t.Fatalf("after value %d: %d values in %d slots, want %d in at most %d", k, r.Len(), cap(r.slots), want, n)
		}
		if r.Total() != k+1 || r.Oldest() != k+1-uint64(r.Len()) {
			t.Fatalf("after value %d: total %d, oldest %d", k, r.Total(), r.Oldest())
		}
		for j := uint64(0); j <= k+n; j++ {
			v := r.At(j)
			if held := j <= k && j+n > k; (v != nil) != held {
				t.Fatalf("after value %d: At(%d) = %v, want held %v", k, j, v, held)
			}
			if v != nil && (*v)[0] != int(j) {
				t.Fatalf("after value %d: At(%d) holds value %d", k, j, (*v)[0])
			}
		}
	}
	if clamped := MakeRing[int](0); clamped.n != 1 {
		t.Fatalf("a ring of 0 slots has %d", clamped.n)
	}
}

// ringSpan is a span whose stages and annotations follow from its ID.
func ringSpan(id uint64) (Span, [3]Stage, [2]Attr) {
	d := time.Duration(id)
	return Span{Trace: TraceID(id), Name: "serve", ID: id, Dur: 3 * d},
		[3]Stage{{"queue", d}, {"batch", d + 1}, {"compute", d + 2}},
		[2]Attr{{"batch_size", float64(id)}, {"batch_weight", float64(id) / 2}}
}

func checkRingSpan(t *testing.T, s Span) {
	t.Helper()
	want, stages, attrs := ringSpan(s.ID)
	if s.Trace != want.Trace || s.Dur != want.Dur || len(s.Stages) != 3 || len(s.Attrs) != 2 {
		t.Fatalf("span %d came back as %+v", s.ID, s)
	}
	for i := range stages {
		if s.Stages[i] != stages[i] {
			t.Fatalf("span %d: stage %d is %+v, want %+v", s.ID, i, s.Stages[i], stages[i])
		}
	}
	for i := range attrs {
		if s.Attrs[i] != attrs[i] {
			t.Fatalf("span %d: annotation %d is %+v, want %+v", s.ID, i, s.Attrs[i], attrs[i])
		}
	}
}

// TestWarmRecordAllocatesNothing: on a ring that has wrapped, recording a
// span of three stages and two annotations built on the caller's stack
// allocates nothing — the slot's storage takes the copy.
func TestWarmRecordAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ring := NewSpanRing(4)
	id := uint64(0)
	record := func() {
		id++
		s, stages, attrs := ringSpan(id)
		ring.Record(s, stages[:], attrs[:])
	}
	for i := 0; i < 9; i++ {
		record()
	}
	if n := testing.AllocsPerRun(200, record); n != 0 {
		t.Fatalf("a warm Record allocates %v times", n)
	}
	for _, s := range ring.Snapshot() {
		checkRingSpan(t, s)
	}
}

// TestSnapshotStableWhileWritersWrap: snapshots taken while writers wrap the
// ring hold spans whose stages and annotations are their own — checked once
// the writers are done and every slot has been rewritten many times over.
func TestSnapshotStableWhileWritersWrap(t *testing.T) {
	const writers, perWriter = 4, 400
	ring := NewSpanRing(8)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s, stages, attrs := ringSpan(uint64(w*perWriter + i + 1))
				ring.Record(s, stages[:], attrs[:])
			}
		}(w)
	}
	var snaps [][]Span
	for ring.Total() < writers*perWriter {
		snaps = append(snaps, ring.Snapshot())
	}
	wg.Wait()
	snaps = append(snaps, ring.Snapshot())
	seen := 0
	for _, snap := range snaps {
		for _, s := range snap {
			checkRingSpan(t, s)
			seen++
		}
	}
	if seen == 0 {
		t.Fatal("no snapshot held a span")
	}
}
