package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one request end to end: minted on the edge, carried
// over the wire, and stamped on every span the request produces. Zero means
// "untraced".
type TraceID uint64

// traceSalt decorrelates the IDs of different processes (an edge and a
// cloud minting concurrently); traceSeq makes IDs unique within one.
var (
	traceSalt = uint64(time.Now().UnixNano())*0x9e3779b97f4a7c15 ^ uint64(os.Getpid())<<32
	traceSeq  atomic.Uint64
)

// NewTraceID mints a process-unique, never-zero trace ID. It is one atomic
// increment plus a multiply — cheap enough to mint unconditionally on the
// request hot path.
func NewTraceID() TraceID {
	for {
		id := TraceID((traceSeq.Add(1) * 0x9e3779b97f4a7c15) ^ traceSalt)
		if id != 0 {
			return id
		}
	}
}

// String renders the ID as fixed-width hex, the form used in logs and JSON.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// MarshalJSON encodes the ID as its hex string.
func (t TraceID) MarshalJSON() ([]byte, error) { return json.Marshal(t.String()) }

// UnmarshalJSON decodes the hex string form.
func (t *TraceID) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	var v uint64
	if _, err := fmt.Sscanf(s, "%x", &v); err != nil {
		return err
	}
	*t = TraceID(v)
	return nil
}

// Stage is one named sub-timing of a span — e.g. the queue / batch /
// compute phases of a served request.
type Stage struct {
	Name string        `json:"name"`
	Dur  time.Duration `json:"dur_ns"`
}

// Attr is one scalar annotation of a span, such as the weight of the batch a
// request rode in.
type Attr struct {
	Key string
	Val float64
}

// Attrs is a span's annotations: a short list a caller can build on its stack
// and a ring slot can keep a copy of. In JSON it is the object a
// map[string]float64 would be, keys sorted.
type Attrs []Attr

// MarshalJSON encodes the list as a JSON object.
func (a Attrs) MarshalJSON() ([]byte, error) {
	m := make(map[string]float64, len(a))
	for _, kv := range a {
		m[kv.Key] = kv.Val
	}
	return json.Marshal(m)
}

// UnmarshalJSON decodes a JSON object into the list, sorted by key.
func (a *Attrs) UnmarshalJSON(data []byte) error {
	var m map[string]float64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*a = (*a)[:0]
	for k, v := range m {
		*a = append(*a, Attr{k, v})
	}
	slices.SortFunc(*a, func(x, y Attr) int { return strings.Compare(x.Key, y.Key) })
	return nil
}

// Span is the completed timeline of one operation. Stages partition (part
// of) the duration into named phases; Attrs carry scalar annotations such
// as the batch weight a request rode in.
type Span struct {
	Trace  TraceID       `json:"trace"`
	Name   string        `json:"name"`
	ID     uint64        `json:"id,omitempty"` // protocol request ID, when relevant
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur_ns"`
	Err    string        `json:"err,omitempty"`
	Stages []Stage       `json:"stages,omitempty"`
	Attrs  Attrs         `json:"attrs,omitempty"`
}

// Attr returns the value of the named annotation (0 when absent).
func (s *Span) Attr(key string) float64 {
	for _, kv := range s.Attrs {
		if kv.Key == key {
			return kv.Val
		}
	}
	return 0
}

// SpanRing is a bounded ring buffer of completed spans: recording is O(1)
// and keeps only the most recent N, so a long-lived server can always show
// its recent request timelines without unbounded memory. A slot owns the
// storage of its stages and annotations: Record copies into it, so a warm
// Record allocates nothing, and Snapshot copies out of it. All methods are
// no-ops (or empty results) on a nil receiver.
type SpanRing struct {
	mu   sync.Mutex
	ring Ring[Span]
}

// NewSpanRing creates a ring holding the last n completed spans (n < 1 is
// clamped to 1).
func NewSpanRing(n int) *SpanRing { return &SpanRing{ring: MakeRing[Span](n)} }

// Record adds one completed span, evicting the oldest when full. The span's
// stages are s.Stages followed by stages, its annotations s.Attrs followed by
// attrs, and the ring keeps its own copy of all four. A caller on a request
// path passes them beside the span, as slices of arrays on its stack, and
// allocates nothing; inside s they would escape to the heap with it, since
// its strings are kept.
func (r *SpanRing) Record(s Span, stages []Stage, attrs []Attr) {
	if r == nil {
		return
	}
	r.mu.Lock()
	slot, _ := r.ring.Push()
	keptStages, keptAttrs := slot.Stages[:0], slot.Attrs[:0]
	*slot = s
	slot.Stages = append(append(keptStages, s.Stages...), stages...)
	slot.Attrs = append(append(keptAttrs, s.Attrs...), attrs...)
	r.mu.Unlock()
}

// Snapshot returns copies of the retained spans, oldest first: nothing in
// them changes when the ring records on.
func (r *SpanRing) Snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, r.ring.Len())
	for k := r.ring.Oldest(); k < r.ring.Total(); k++ {
		s := *r.ring.At(k)
		s.Stages, s.Attrs = slices.Clone(s.Stages), slices.Clone(s.Attrs)
		out = append(out, s)
	}
	return out
}

// Total returns how many spans were ever recorded (including evicted ones).
func (r *SpanRing) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Total()
}
