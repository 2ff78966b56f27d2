package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// The SLO event stream: structured firing/resolved transitions kept in a
// bounded ring and served at /debug/events, with the same fan-out story as
// the metrics merge — a gateway pulls every backend's event feed and serves
// the fleet's union from one endpoint, each event labelled with its source.

// EventState is the transition an Event records.
type EventState string

const (
	// StateFiring marks the evaluation at which an objective started
	// breaching its target.
	StateFiring EventState = "firing"
	// StateResolved marks the evaluation at which a firing objective
	// returned within target.
	StateResolved EventState = "resolved"
)

// Event is one SLO state transition: which objective, which way it
// crossed, the window value versus the target at the transition, and how
// much history the verdict covered.
type Event struct {
	Seq       uint64            `json:"seq"` // per-ring monotone sequence
	UnixNanos int64             `json:"unix_nanos"`
	Name      string            `json:"objective"`
	State     EventState        `json:"state"`
	Value     float64           `json:"value"`  // window aggregate at the transition
	Target    float64           `json:"target"` // the objective's threshold
	Op        Op                `json:"op"`     // how Value is judged against Target
	Window    float64           `json:"window_seconds"`
	Source    string            `json:"source,omitempty"` // backend label in merged views
	Labels    map[string]string `json:"labels,omitempty"`
}

// Time returns the event's timestamp.
func (e Event) Time() time.Time { return time.Unix(0, e.UnixNanos) }

// String renders one event the way `shredder top` and logs print it.
func (e Event) String() string {
	src := ""
	if e.Source != "" {
		src = e.Source + " "
	}
	return fmt.Sprintf("%s%s %s: value %.4g %s target %.4g over %.0fs",
		src, e.Name, e.State, e.Value, e.Op, e.Target, e.Window)
}

// EventRing is a bounded ring of SLO events: appends never block, old
// events fall off the front, and Seq keeps consumers able to detect both
// loss and novelty. All methods are safe for concurrent use and no-ops on a
// nil ring.
type EventRing struct {
	mu   sync.Mutex
	ring Ring[Event] // event k has Seq k+1
}

// NewEventRing creates a ring holding the last n events (n < 1 is clamped
// to 1).
func NewEventRing(n int) *EventRing { return &EventRing{ring: MakeRing[Event](n)} }

// Append stamps the event with the next sequence number and stores it,
// evicting the oldest when full. Returns the stamped event (zero Event on
// a nil ring).
func (r *EventRing) Append(e Event) Event {
	if r == nil {
		return Event{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	slot, k := r.ring.Push()
	e.Seq = k + 1
	*slot = e
	return e
}

// Snapshot returns the retained events, oldest first. A nil ring returns
// nil.
func (r *EventRing) Snapshot() []Event { return r.Since(0) }

// Since returns the retained events with Seq > after, oldest first — the
// incremental poll a dashboard uses. A nil ring returns nil.
func (r *EventRing) Since(after uint64) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.ring.Len())
	for k := max(after, r.ring.Oldest()); k < r.ring.Total(); k++ {
		out = append(out, *r.ring.At(k))
	}
	return out
}

// Total returns how many events were ever appended (including evicted
// ones).
func (r *EventRing) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Total()
}

// MergedEvents folds the local ring and every source's events into one
// time-ordered list: local events keep an empty Source, fetched events are
// stamped with their source's label, and a failing source contributes a
// single synthetic firing event for the objective "event-source" so the
// outage itself is visible in the stream it broke. The merge never fails.
func MergedEvents(local *EventRing, sources []Source[[]Event]) []Event {
	out := local.Snapshot()
	for _, src := range sources {
		if src.Fetch == nil {
			continue
		}
		events, err := src.Fetch()
		if err != nil {
			out = append(out, Event{
				UnixNanos: time.Now().UnixNano(),
				Name:      "event-source",
				State:     StateFiring,
				Source:    src.Label,
				Labels:    map[string]string{"error": err.Error()},
			})
			continue
		}
		for _, e := range events {
			if e.Source == "" {
				e.Source = src.Label
			} else {
				e.Source = src.Label + "." + e.Source // nested merges stay attributable
			}
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].UnixNanos < out[j].UnixNanos })
	return out
}
