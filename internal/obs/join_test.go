package obs

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// joinFixture builds a matched client/server span pair with a known clock
// offset: the server span's midpoint is placed exactly offset away from the
// midpoint of the client's wait stage, so JoinSpans must recover offset.
func joinFixture(trace TraceID, offset time.Duration) (client, server Span) {
	base := time.Unix(1_700_000_000, 0)
	client = Span{
		Trace: trace, Name: "infer", ID: 3, Start: base,
		Dur: 10 * time.Millisecond,
		Stages: []Stage{
			{Name: "quantize", Dur: 1 * time.Millisecond},
			{Name: "serialize", Dur: 2 * time.Millisecond},
			{Name: "send", Dur: 1 * time.Millisecond},
			{Name: "wait", Dur: 5 * time.Millisecond},
			{Name: "decode", Dur: 1 * time.Millisecond},
		},
		Attrs: Attrs{{"bits", 8}, {"shared", 1}},
	}
	// sendEnd = base+4ms, wait midpoint = base+6.5ms (client clock).
	const srvDur = 3 * time.Millisecond
	server = Span{
		Trace: trace, Name: "request",
		Start: base.Add(6500*time.Microsecond + offset - srvDur/2),
		Dur:   srvDur,
		Stages: []Stage{
			{Name: "queue", Dur: 500 * time.Microsecond},
			{Name: "batch", Dur: 500 * time.Microsecond},
			{Name: "compute", Dur: 2 * time.Millisecond},
		},
		Attrs: Attrs{{"batch_size", 2}, {"shared", 99}},
	}
	return client, server
}

// TestJoinSpansSevenStages joins one matched pair and checks the canonical
// seven-stage timeline comes out in order with both sides' durations, the
// client identity fields, and attrs merged with the client winning ties.
func TestJoinSpansSevenStages(t *testing.T) {
	cs, ss := joinFixture(7, 0)
	joined := JoinSpans([]Span{cs}, []Span{ss})
	if len(joined) != 1 {
		t.Fatalf("joined %d spans, want 1", len(joined))
	}
	j := joined[0]
	if j.Trace != 7 || j.ID != 3 || !j.Start.Equal(cs.Start) || j.Dur != cs.Dur {
		t.Fatalf("client identity not preserved: %+v", j)
	}
	if len(j.Stages) != len(JoinedStages) {
		t.Fatalf("%d stages, want %d", len(j.Stages), len(JoinedStages))
	}
	for i, name := range JoinedStages {
		if j.Stages[i].Name != name {
			t.Fatalf("stage %d is %q, want %q", i, j.Stages[i].Name, name)
		}
	}
	// wait (5ms) brackets the server span (3ms), so each reconstructed
	// network leg is 1ms, folded into send and decode.
	want := map[string]time.Duration{
		"quantize": time.Millisecond, "serialize": 2 * time.Millisecond,
		"send": 2 * time.Millisecond, "queue": 500 * time.Microsecond,
		"batch": 500 * time.Microsecond, "compute": 2 * time.Millisecond,
		"decode": 2 * time.Millisecond,
	}
	var sum time.Duration
	for name, d := range want {
		if got := j.StageDur(name); got != d {
			t.Fatalf("stage %q = %v, want %v", name, got, d)
		}
		sum += d
	}
	if sum > j.Dur {
		t.Fatalf("stage sum %v exceeds span duration %v", sum, j.Dur)
	}
	if j.Attrs["bits"] != 8 || j.Attrs["batch_size"] != 2 {
		t.Fatalf("attrs not merged: %+v", j.Attrs)
	}
	if j.Attrs["shared"] != 1 {
		t.Fatalf("client attr must win a key collision, got %v", j.Attrs["shared"])
	}
	if j.Skewed {
		t.Fatal("symmetric fixture flagged Skewed")
	}
}

// TestJoinClampsSkewedStages pins the clock-skew fix: when the server span
// is *wider* than the client wait that brackets it (asymmetric links or
// skewed timestamps make the reconstructed network legs negative), the join
// must clamp the legs at zero — never emit a negative send/decode stage —
// and flag the timeline Skewed.
func TestJoinClampsSkewedStages(t *testing.T) {
	cs, ss := joinFixture(21, 0)
	ss.Dur = 8 * time.Millisecond // wait is 5ms: legs would be -1.5ms each
	joined := JoinSpans([]Span{cs}, []Span{ss})
	if len(joined) != 1 {
		t.Fatalf("joined %d spans, want 1", len(joined))
	}
	j := joined[0]
	if !j.Skewed {
		t.Fatal("negative reconstructed legs not flagged Skewed")
	}
	for _, st := range j.Stages {
		if st.Dur < 0 {
			t.Fatalf("stage %q negative after clamp: %v", st.Name, st.Dur)
		}
	}
	// With the legs clamped, send and decode fall back to their locally
	// measured wall times.
	if j.StageDur("send") != time.Millisecond || j.StageDur("decode") != time.Millisecond {
		t.Fatalf("clamped legs altered measured stages: %+v", j.Stages)
	}

	// A hostile/buggy peer shipping a negative stage duration is clamped
	// too rather than poisoning the timeline.
	cs2, ss2 := joinFixture(22, 0)
	ss2.Stages[0].Dur = -time.Millisecond // queue
	j2 := JoinSpans([]Span{cs2}, []Span{ss2})[0]
	if j2.StageDur("queue") != 0 || !j2.Skewed {
		t.Fatalf("negative peer stage survived: %+v", j2)
	}
}

// TestJoinServerWiderThanWaitIsScaled is the shape of the failure that made
// the end-to-end join test flaky: on loopback the server can decode a
// request and start its clock before the client's write call has returned,
// so its stages add up to more than the client's wait. The join must fit
// them into the bracket in proportion, not splice them in whole.
func TestJoinServerWiderThanWaitIsScaled(t *testing.T) {
	cs, ss := joinFixture(23, 0)
	ss.Dur = 8 * time.Millisecond
	ss.Stages = []Stage{
		{Name: "queue", Dur: 2 * time.Millisecond},
		{Name: "batch", Dur: 2 * time.Millisecond},
		{Name: "compute", Dur: 4 * time.Millisecond},
	}
	j := JoinSpans([]Span{cs}, []Span{ss})[0]
	if !j.Skewed {
		t.Fatal("server stages wider than the wait bracket not flagged Skewed")
	}
	// 8ms of server stages into a 5ms wait: 1.25 + 1.25 + 2.5, no legs.
	want := map[string]time.Duration{
		"queue": 1250 * time.Microsecond, "batch": 1250 * time.Microsecond,
		"compute": 2500 * time.Microsecond, "send": time.Millisecond, "decode": time.Millisecond,
	}
	for name, d := range want {
		if got := j.StageDur(name); got != d {
			t.Fatalf("stage %q = %v, want %v", name, got, d)
		}
	}
}

// TestJoinStagesNeverExceedDur is the invariant as a property: whatever
// the two sides report — consistent timelines, servers wider than the wait,
// client stages that overrun their own span, negative and absurd values —
// every joined stage is non-negative and the seven sum to at most Dur, and
// only a timeline the join had to correct is flagged Skewed.
func TestJoinStagesNeverExceedDur(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	dur := func() time.Duration {
		switch rng.Intn(12) {
		case 0:
			return 0
		case 1:
			return -time.Duration(rng.Int63n(int64(time.Second)))
		case 2:
			return time.Duration(math.MaxInt64 - rng.Int63n(1000))
		case 3:
			return time.Duration(rng.Int63n(int64(100 * time.Hour)))
		default:
			return time.Duration(rng.Int63n(int64(time.Millisecond)))
		}
	}
	for i := 0; i < 20000; i++ {
		cs := Span{Trace: 1, Start: time.Unix(1_700_000_000, 0), Stages: []Stage{
			{Name: "quantize", Dur: dur()}, {Name: "serialize", Dur: dur()},
			{Name: "send", Dur: dur()}, {Name: "wait", Dur: dur()}, {Name: "decode", Dur: dur()},
		}}
		var clientSum time.Duration
		consistent := true
		for _, st := range cs.Stages {
			consistent = consistent && st.Dur >= 0 && st.Dur <= time.Hour
			clientSum += st.Dur
		}
		if consistent && rng.Intn(2) == 0 {
			cs.Dur = clientSum + time.Duration(rng.Int63n(1000)) // stages nest in the span, as a real client's do
		} else {
			cs.Dur = dur()
		}
		ss := Span{Trace: 1, Start: cs.Start, Dur: dur()}
		if rng.Intn(4) != 0 {
			ss.Stages = []Stage{{Name: "queue", Dur: dur()}, {Name: "batch", Dur: dur()}, {Name: "compute", Dur: dur()}}
		}
		j := joinOne(&cs, &ss)
		if len(j.Stages) != len(JoinedStages) {
			t.Fatalf("case %d: %d stages", i, len(j.Stages))
		}
		var sum time.Duration
		for _, st := range j.Stages {
			if st.Dur < 0 {
				t.Fatalf("case %d: stage %q negative: %v\nclient %+v\nserver %+v", i, st.Name, st.Dur, cs, ss)
			}
			sum += st.Dur
			if sum < 0 {
				t.Fatalf("case %d: stage sum overflowed\nclient %+v\nserver %+v", i, cs, ss)
			}
		}
		if sum > max(j.Dur, 0) {
			t.Fatalf("case %d: stages sum to %v, more than the %v span\nclient %+v\nserver %+v\njoined %+v", i, sum, j.Dur, cs, ss, j.Stages)
		}
		server := j.StageDur("queue") + j.StageDur("batch") + j.StageDur("compute")
		if server > max(cs.StageDur("wait"), 0) {
			t.Fatalf("case %d: server stages %v wider than the %v wait", i, server, cs.StageDur("wait"))
		}
		var reported time.Duration
		for _, st := range ss.Stages {
			consistent = consistent && st.Dur >= 0 && st.Dur <= time.Hour
			reported += st.Dur
		}
		if consistent && cs.Dur >= clientSum && ss.Dur >= 0 && ss.Dur <= cs.StageDur("wait") && reported <= ss.Dur && j.Skewed {
			t.Fatalf("case %d: consistent timeline flagged Skewed\nclient %+v\nserver %+v", i, cs, ss)
		}
	}
}

// TestJoinClockOffset plants known server-minus-client offsets and checks
// the RTT-midpoint estimate recovers them exactly (the fixture's legs are
// symmetric by construction).
func TestJoinClockOffset(t *testing.T) {
	for _, offset := range []time.Duration{0, time.Second, -250 * time.Millisecond} {
		cs, ss := joinFixture(9, offset)
		joined := JoinSpans([]Span{cs}, []Span{ss})
		if len(joined) != 1 {
			t.Fatalf("offset %v: joined %d spans", offset, len(joined))
		}
		if got := joined[0].ClockOffset; got != offset {
			t.Fatalf("clock offset %v, want %v", got, offset)
		}
	}
}

// TestJoinSpansSkipsUnjoinable checks untraced and unmatched spans are
// dropped rather than mis-paired, and empty inputs join to nothing.
func TestJoinSpansSkipsUnjoinable(t *testing.T) {
	cs, ss := joinFixture(11, 0)
	untraced := cs
	untraced.Trace = 0
	orphan := cs
	orphan.Trace = 12 // no matching server span
	joined := JoinSpans([]Span{untraced, orphan, cs}, []Span{ss})
	if len(joined) != 1 || joined[0].Trace != 11 {
		t.Fatalf("join kept the wrong spans: %+v", joined)
	}
	if got := JoinSpans(nil, []Span{ss}); got != nil {
		t.Fatalf("empty client side joined: %+v", got)
	}
	if got := JoinSpans([]Span{cs}, nil); got != nil {
		t.Fatalf("empty server side joined: %+v", got)
	}
}

// TestJoinComputeFallbackAndErr checks a server span without a stage
// breakdown attributes its whole duration to compute, and a server-side
// error surfaces on the joined span when the client recorded none.
func TestJoinComputeFallbackAndErr(t *testing.T) {
	cs, ss := joinFixture(13, 0)
	ss.Stages = nil
	ss.Err = "scripted"
	j := JoinSpans([]Span{cs}, []Span{ss})[0]
	if got := j.StageDur("compute"); got != ss.Dur {
		t.Fatalf("compute fallback %v, want server duration %v", got, ss.Dur)
	}
	if j.StageDur("queue") != 0 || j.StageDur("batch") != 0 {
		t.Fatalf("fallback invented queue/batch time: %+v", j.Stages)
	}
	if j.Err != "scripted" {
		t.Fatalf("server error lost: %+v", j)
	}
}

// TestSpanJoiner covers the ring-pairing wrapper, including the nil form.
func TestSpanJoiner(t *testing.T) {
	var nilJoiner *SpanJoiner
	if got := nilJoiner.Joined(); got != nil {
		t.Fatalf("nil joiner joined: %+v", got)
	}
	cs, ss := joinFixture(17, 0)
	j := &SpanJoiner{Client: NewSpanRing(4), Server: NewSpanRing(4)}
	j.Client.Record(cs, nil, nil)
	j.Server.Record(ss, nil, nil)
	joined := j.Joined()
	if len(joined) != 1 || joined[0].Trace != 17 {
		t.Fatalf("joiner result: %+v", joined)
	}
	if (&SpanJoiner{}).Joined() != nil {
		t.Fatal("joiner over nil rings must join to nothing")
	}
}
