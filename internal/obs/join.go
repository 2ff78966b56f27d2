package obs

import (
	"math/bits"
	"time"
)

// JoinedStages lists the seven canonical stages of a joined edge↔cloud
// request timeline, in wire order: the client-side quantize/serialize/send,
// the server-side queue/batch/compute, and the client-side decode.
var JoinedStages = []string{
	"quantize", "serialize", "send", "queue", "batch", "compute", "decode",
}

// JoinedSpan is one request seen from both ends: the client span's timeline
// (Start/Dur are in the client's clock) with the matching server span's
// stages spliced into the middle, and an estimate of the server-minus-client
// clock offset. Stage durations are wall times measured on whichever side
// owns the stage, so they are immune to clock skew — except the network
// transit itself, which neither side can time alone: the join reconstructs
// it as the residual of the client's wait around the server span, splits it
// evenly between the send and decode stages, and carries the RTT-midpoint
// estimation error, which can be as large as half the asymmetry between the
// two network directions.
//
// Two things hold for every joined span, whatever the two sides reported:
// no stage is negative, and the stages sum to at most Dur. The server's
// queue/batch/compute can only have happened inside the client's wait, so
// when they are reported wider than that bracket (the server's clock starts
// when the request is decoded, which on a fast link can be before the
// client's write call has returned and stamped the end of its send) they
// are scaled down proportionally to fit it; stages that still overrun Dur
// are scaled the same way. Every such correction, and every negative stage
// clamped to zero, flags the timeline Skewed.
type JoinedSpan struct {
	Trace       TraceID            `json:"trace"`
	ID          uint64             `json:"id,omitempty"`
	Start       time.Time          `json:"start"`
	Dur         time.Duration      `json:"dur_ns"`
	ClockOffset time.Duration      `json:"clock_offset_ns"`
	Skewed      bool               `json:"skewed,omitempty"`
	Err         string             `json:"err,omitempty"`
	Stages      []Stage            `json:"stages"`
	Attrs       map[string]float64 `json:"attrs,omitempty"`
}

// StageDur returns the duration of the named stage (0 when absent).
func (j *JoinedSpan) StageDur(name string) time.Duration {
	for _, st := range j.Stages {
		if st.Name == name {
			return st.Dur
		}
	}
	return 0
}

// JoinSpans matches client spans to server spans by TraceID and merges each
// pair into a seven-stage JoinedSpan. Client spans without a matching server
// span (still in flight on the other ring, evicted, or failed before the
// wire) are skipped, as are untraced spans. Inputs are the Snapshot() of
// each side's ring; the result preserves the client ring's (oldest-first)
// order.
func JoinSpans(client, server []Span) []JoinedSpan {
	if len(client) == 0 || len(server) == 0 {
		return nil
	}
	byTrace := make(map[TraceID]*Span, len(server))
	for i := range server {
		if server[i].Trace != 0 {
			byTrace[server[i].Trace] = &server[i]
		}
	}
	var out []JoinedSpan
	for i := range client {
		cs := &client[i]
		if cs.Trace == 0 {
			continue
		}
		ss := byTrace[cs.Trace]
		if ss == nil {
			continue
		}
		out = append(out, joinOne(cs, ss))
	}
	return out
}

// maxStageDur caps what the join accepts as one stage (over two years), so
// that sums of stages cannot overflow.
const maxStageDur = time.Duration(1) << 56

// joinOne merges one client/server span pair.
func joinOne(cs, ss *Span) JoinedSpan {
	j := JoinedSpan{
		Trace: cs.Trace,
		ID:    cs.ID,
		Start: cs.Start,
		Dur:   cs.Dur,
		Err:   cs.Err,
	}
	if j.Err == "" {
		j.Err = ss.Err
	}
	j.Stages = []Stage{
		{Name: "quantize", Dur: cs.StageDur("quantize")},
		{Name: "serialize", Dur: cs.StageDur("serialize")},
		{Name: "send", Dur: cs.StageDur("send")},
		{Name: "queue", Dur: ss.StageDur("queue")},
		{Name: "batch", Dur: ss.StageDur("batch")},
		{Name: "compute", Dur: ss.StageDur("compute")},
		{Name: "decode", Dur: cs.StageDur("decode")},
	}
	send, server, decode := &j.Stages[2], j.Stages[3:6], &j.Stages[6]
	if server[0].Dur == 0 && server[1].Dur == 0 && server[2].Dur == 0 {
		// Server recorded no stage breakdown (e.g. a pre-stage build):
		// attribute its whole duration to compute.
		server[2].Dur = ss.Dur
	}
	for i := range j.Stages {
		// Stage durations are wall times and should never be negative (or
		// run to years), but a peer shipping spans from another process (or
		// another build) is not under our control: clamp defensively and
		// mark the timeline.
		if d := j.Stages[i].Dur; d < 0 || d > maxStageDur {
			j.Stages[i].Dur = min(max(d, 0), maxStageDur)
			j.Skewed = true
		}
	}
	// The client's wait stage brackets the server's stages plus the two wire
	// legs. First fit the server's stages into the bracket; then whatever of
	// the bracket the server span leaves over is the total transit, split
	// evenly between the directions (the same symmetry assumption the
	// clock-offset estimate below rests on) and folded into send and decode.
	wait := min(max(cs.StageDur("wait"), 0), maxStageDur)
	if fitStages(server, wait) {
		j.Skewed = true
	}
	held := max(ss.Dur, server[0].Dur+server[1].Dur+server[2].Dur)
	if held > wait {
		j.Skewed = true
	} else {
		send.Dur += (wait - held) / 2
		decode.Dur += (wait - held) / 2
	}
	if fitStages(j.Stages, max(j.Dur, 0)) {
		j.Skewed = true
	}
	if len(cs.Attrs)+len(ss.Attrs) > 0 {
		j.Attrs = make(map[string]float64, len(cs.Attrs)+len(ss.Attrs))
		for _, kv := range ss.Attrs {
			j.Attrs[kv.Key] = kv.Val
		}
		for _, kv := range cs.Attrs {
			j.Attrs[kv.Key] = kv.Val
		}
	}
	// RTT-midpoint clock-offset estimate: the client's wait stage brackets
	// the server span plus the two network legs. Assuming symmetric legs,
	// the server span's midpoint (server clock) coincides with the wait
	// interval's midpoint (client clock); the difference of the two
	// timestamps estimates server_clock − client_clock.
	sendEnd := cs.Start.
		Add(cs.StageDur("quantize")).
		Add(cs.StageDur("serialize")).
		Add(cs.StageDur("send"))
	clientMid := sendEnd.Add(cs.StageDur("wait") / 2)
	serverMid := ss.Start.Add(ss.Dur / 2)
	j.ClockOffset = serverMid.Sub(clientMid)
	return j
}

// fitStages scales stages down proportionally, rounding each down, when they
// sum to more than budget, and reports whether it had to. Durations must be
// non-negative.
func fitStages(stages []Stage, budget time.Duration) bool {
	var sum time.Duration
	for _, st := range stages {
		sum += st.Dur
	}
	if sum <= budget {
		return false
	}
	for i := range stages {
		// d·budget/sum in 128 bits: the product overflows 64 for durations
		// of hours, the quotient cannot (d ≤ sum).
		hi, lo := bits.Mul64(uint64(stages[i].Dur), uint64(budget))
		q, _ := bits.Div64(hi, lo, uint64(sum))
		stages[i].Dur = time.Duration(q)
	}
	return true
}

// SpanJoiner pairs a client-side and a server-side span ring for on-demand
// joining — the /debug/spans?join=1 data source. Nil-safe.
type SpanJoiner struct {
	Client *SpanRing
	Server *SpanRing
}

// Joined snapshots both rings and returns the joined timelines.
func (j *SpanJoiner) Joined() []JoinedSpan {
	if j == nil {
		return nil
	}
	return JoinSpans(j.Client.Snapshot(), j.Server.Snapshot())
}
