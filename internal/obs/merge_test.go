package obs

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"testing"
	"time"
)

// TestMergeSnapshotPrefixesEverything merges two source snapshots into a
// base and checks every metric class survives under its label, values
// intact and unsummed.
func TestMergeSnapshotPrefixesEverything(t *testing.T) {
	base := NewRegistry()
	base.Counter("gateway.requests").Add(7)

	a := NewRegistry()
	a.Counter("server.requests").Add(3)
	a.Gauge("server.batch.occupancy").Set(2.5)
	a.Histogram("server.latency_seconds").Observe(0.001)
	b := NewRegistry()
	b.Counter("server.requests").Add(11)

	snap := Debug{Metrics: base, Sources: []Source[Snapshot]{
		{Label: "backend.a", Fetch: func() (Snapshot, error) { return a.Snapshot(), nil }},
		{Label: "backend.b", Fetch: func() (Snapshot, error) { return b.Snapshot(), nil }},
	}}.snapshot(time.Now())
	if snap.Counters["gateway.requests"] != 7 {
		t.Fatalf("base metric lost: %+v", snap.Counters)
	}
	if snap.Counters["backend.a.server.requests"] != 3 || snap.Counters["backend.b.server.requests"] != 11 {
		t.Fatalf("per-backend counters wrong: %+v", snap.Counters)
	}
	if snap.Gauges["backend.a.server.batch.occupancy"] != 2.5 {
		t.Fatalf("gauge not merged: %+v", snap.Gauges)
	}
	if h := snap.Histograms["backend.a.server.latency_seconds"]; h.Count != 1 {
		t.Fatalf("histogram not merged: %+v", snap.Histograms)
	}
}

// TestMergedSnapshotSurvivesFailedSource checks a dead backend turns into a
// merge.failed counter in the debug snapshot instead of failing the merge.
func TestMergedSnapshotSurvivesFailedSource(t *testing.T) {
	live := NewRegistry()
	live.Counter("server.requests").Add(1)
	snap := Debug{Metrics: NewRegistry(), Sources: []Source[Snapshot]{
		{Label: "dead", Fetch: func() (Snapshot, error) { return Snapshot{}, errors.New("down") }},
		{Label: "live", Fetch: func() (Snapshot, error) { return live.Snapshot(), nil }},
		{Label: "nilfetch"},
	}}.snapshot(time.Now())
	if snap.Counters["merge.failed.dead"] != 1 {
		t.Fatalf("failed source not reported: %+v", snap.Counters)
	}
	if snap.Counters["live.server.requests"] != 1 {
		t.Fatalf("live source lost behind the dead one: %+v", snap.Counters)
	}
}

// TestDebugEndpointMergesSources serves a Debug with Sources and checks
// /debug/metrics carries the merged, labelled payload over HTTP.
func TestDebugEndpointMergesSources(t *testing.T) {
	own := NewRegistry()
	own.Counter("pool.requests").Add(2)
	backend := NewRegistry()
	backend.Counter("server.requests").Add(9)

	d, err := Debug{
		Metrics: own,
		Sources: []Source[Snapshot]{
			{Label: "backend.0", Fetch: func() (Snapshot, error) { return backend.Snapshot(), nil }},
		},
	}.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	resp, err := http.Get("http://" + d.Addr + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["pool.requests"] != 2 || snap.Counters["backend.0.server.requests"] != 9 {
		t.Fatalf("merged endpoint payload: %+v", snap.Counters)
	}
}

// TestMergeSnapshotEmptySource: merging an empty snapshot (a backend that
// has registered nothing yet) must leave the destination untouched — no
// phantom prefixed entries, no panics on nil maps inside the source.
func TestMergeSnapshotEmptySource(t *testing.T) {
	base := NewRegistry()
	base.Counter("gateway.requests").Add(4)
	dst := base.Snapshot()
	before := len(dst.Counters) + len(dst.Gauges) + len(dst.Histograms)

	MergeSnapshot(&dst, "idle", Snapshot{}) // zero-value source: nil maps
	MergeSnapshot(&dst, "fresh", NewRegistry().Snapshot())

	after := len(dst.Counters) + len(dst.Gauges) + len(dst.Histograms)
	if after != before {
		t.Fatalf("empty sources grew the snapshot: %d → %d entries", before, after)
	}
	if dst.Counters["gateway.requests"] != 4 {
		t.Fatalf("base metric disturbed: %+v", dst.Counters)
	}
}

// TestMergeSnapshotDuplicateLabel pins the collision semantics: two merges
// under the same label overwrite key-by-key (last write wins), they do not
// sum. Fleet configs that accidentally label two backends identically lose
// one backend's numbers — visibly documented here rather than silently
// relied on.
func TestMergeSnapshotDuplicateLabel(t *testing.T) {
	a := NewRegistry()
	a.Counter("server.requests").Add(3)
	a.Gauge("server.queue").Set(1)
	b := NewRegistry()
	b.Counter("server.requests").Add(11)

	dst := NewRegistry().Snapshot()
	MergeSnapshot(&dst, "backend", a.Snapshot())
	MergeSnapshot(&dst, "backend", b.Snapshot())

	if got := dst.Counters["backend.server.requests"]; got != 11 {
		t.Fatalf("duplicate label should last-write-win, not sum: got %d, want 11", got)
	}
	// b never registered the gauge, so a's survives — merging is per-key,
	// not per-source replacement.
	if got := dst.Gauges["backend.server.queue"]; got != 1 {
		t.Fatalf("unrelated key from the first merge lost: %v", got)
	}
}

// TestMergeSnapshotOverflowBucket: a histogram whose observations exceed
// every finite bound keeps its +Inf overflow bucket through a merge and a
// JSON round trip (the wire format /debug/metrics speaks), even when the
// two sources disagree on whether the overflow bucket is populated.
func TestMergeSnapshotOverflowBucket(t *testing.T) {
	hot := NewRegistry()
	hot.Histogram("latency", 0.01, 0.1).Observe(5) // above every bound → +Inf bucket
	cold := NewRegistry()
	cold.Histogram("latency", 0.01, 0.1).Observe(0.005) // first bucket only

	dst := NewRegistry().Snapshot()
	MergeSnapshot(&dst, "hot", hot.Snapshot())
	MergeSnapshot(&dst, "cold", cold.Snapshot())

	raw, err := json.Marshal(dst)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	hotH := back.Histograms["hot.latency"]
	if hotH.Count != 1 || len(hotH.Buckets) != 1 {
		t.Fatalf("hot histogram malformed after round trip: %+v", hotH)
	}
	if !math.IsInf(hotH.Buckets[0].Le, 1) {
		t.Fatalf("overflow bucket edge decoded as %v, want +Inf", hotH.Buckets[0].Le)
	}
	coldH := back.Histograms["cold.latency"]
	if len(coldH.Buckets) != 1 || coldH.Buckets[0].Le != 0.01 {
		t.Fatalf("cold histogram's finite bucket lost: %+v", coldH)
	}
	for _, b := range coldH.Buckets {
		if math.IsInf(b.Le, 1) {
			t.Fatal("cold histogram grew a phantom +Inf bucket through the merge")
		}
	}
}
