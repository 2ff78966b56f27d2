package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// Snapshot merging: one debug endpoint re-exporting the metrics of a whole
// fleet. A gateway (or any aggregator) collects Snapshot values from N
// backends — its own registry, in-process registries, or remote
// /debug/metrics endpoints — and MergeSnapshot folds each one into a single
// Snapshot under a per-source label prefix, so `backend.a.server.requests`
// and `backend.b.server.requests` sit side by side in one payload and
// nothing is summed away.

// Source is one labelled feed of T for a merged debug endpoint — a
// Snapshot for /debug/metrics, a []Event for /debug/events: Fetch produces
// the source's current value (typically a registry read or an HTTP pull from
// a backend's debug endpoint). A failing Fetch is reported inside the merged
// payload rather than failing the merge; a nil Fetch is skipped.
type Source[T any] struct {
	Label string
	Fetch func() (T, error)
}

// HTTPSource builds a Source that pulls url (any endpoint serving a JSON T)
// with GetJSON's short timeout, so one slow backend cannot stall the merged
// view for long.
func HTTPSource[T any](label, url string) Source[T] {
	return Source[T]{Label: label, Fetch: func() (v T, err error) {
		err = GetJSON(nil, url, &v)
		return v, err
	}}
}

// ErrNotFound is GetJSON's error for a 404: the endpoint answered and does
// not hold what was asked for.
var ErrNotFound = errors.New("not found")

var defaultClient = &http.Client{Timeout: 2 * time.Second}

// GetJSON fetches url and decodes its JSON body into dst: the one "GET, 200?,
// decode" of the debug surfaces' clients (the fleet fan-outs, the audit
// sources, `shredder top`). A nil client means one with a 2-second timeout.
func GetJSON(client *http.Client, url string, dst any) error {
	if client == nil {
		client = defaultClient
	}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return json.NewDecoder(resp.Body).Decode(dst)
	case http.StatusNotFound:
		return fmt.Errorf("obs: %s: %w", url, ErrNotFound)
	}
	return fmt.Errorf("obs: %s: status %s", url, resp.Status)
}

// MergeSnapshot copies every metric of src into dst under the name prefix
// "<label>." — counters, gauges, and histograms keep their values and
// bucket layout. Metrics are never aggregated across sources: the label
// keeps each backend's numbers distinguishable, which is what a fleet
// operator needs to spot the one slow or failing backend.
func MergeSnapshot(dst *Snapshot, label string, src Snapshot) {
	prefix := label + "."
	for name, v := range src.Counters {
		dst.Counters[prefix+name] = v
	}
	for name, v := range src.Gauges {
		dst.Gauges[prefix+name] = v
	}
	for name, h := range src.Histograms {
		dst.Histograms[prefix+name] = h
	}
	if src.Window == nil {
		return
	}
	// A source's windowed series fold in under the same prefix. Covered
	// spans can differ per source (a just-restarted backend's window is
	// still filling), so each source's span lands as a prefixed gauge
	// rather than overwriting the merged window's own.
	if dst.Window == nil {
		dst.Window = &WindowSnapshot{
			Counters:   map[string]WindowCounter{},
			Histograms: map[string]WindowHistogram{},
		}
	}
	for name, v := range src.Window.Counters {
		dst.Window.Counters[prefix+name] = v
	}
	for name, h := range src.Window.Histograms {
		dst.Window.Histograms[prefix+name] = h
	}
	dst.Gauges[prefix+"window.seconds"] = src.Window.Seconds
}
