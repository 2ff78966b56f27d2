package obs

// The span ring's slots keep the storage of their stages and annotations
// (SpanRing.Record): what a warm Record allocates, and that a snapshot does
// not see the slots move on.

import (
	"sync"
	"testing"
	"time"

	"shredder/internal/race"
)

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
