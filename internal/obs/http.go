package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// Debug bundles the data sources behind the debug HTTP surface. Any field
// may be nil; the corresponding endpoint then serves an empty document.
type Debug struct {
	Metrics *Registry
	Spans   *SpanRing
	Profile *Profiler // /debug/profile per-layer table

	// Windows, when set, attaches the sliding-window aggregate to every
	// /debug/metrics payload (the snapshot's "window" field / the prom
	// *_window_* gauges). Each scrape advances the window's leading edge,
	// so a scrape-driven deployment needs no background ticker.
	Windows *Windows

	// Events, when set, serves the SLO event ring at /debug/events.
	Events *EventRing

	// Sources and EventSources are extra labelled feeds (merge.go) — how a
	// gateway re-exports its whole backend fleet from one endpoint: metrics
	// merged into /debug/metrics under "<label>." prefixes, a fetch failure
	// surfacing as a merge.failed.<label> counter instead of failing the
	// request; events merged into /debug/events, each stamped with its
	// label (MergedEvents).
	Sources      []Source[Snapshot]
	EventSources []Source[[]Event]

	// Audit, when set, serves /debug/audit: the audit ledger's proofs (the
	// audit package's Handler, which obs does not import).
	Audit http.Handler
}

// snapshot builds the /debug/metrics payload: the base registry's
// cumulative state, the attached window's aggregate over it, and every
// source's snapshot folded in under its label — a failing source as a
// `merge.failed.<label>` counter: a dead backend must not blind the fleet
// view.
func (d Debug) snapshot(now time.Time) Snapshot {
	snap := d.Metrics.Snapshot()
	snap.Window = d.Windows.AdvanceWith(now, snap)
	for _, src := range d.Sources {
		if src.Fetch == nil {
			continue
		}
		s, err := src.Fetch()
		if err != nil {
			snap.Counters["merge.failed."+src.Label] = 1
			continue
		}
		MergeSnapshot(&snap, src.Label, s)
	}
	return snap
}

// Handler serves the debug surface:
//
//	/debug/metrics              JSON Snapshot of every registered metric
//	/debug/metrics?format=prom  the same snapshot as Prometheus text exposition
//	/debug/spans                JSON list of recent completed spans (?n= limits, newest kept)
//	/debug/profile              cumulative per-layer compute profile (?format=csv|text)
//	/debug/events               SLO transition events (JSON, ?after=seq)
//	/debug/audit                the Audit handler, when there is one
//	/debug/vars                 the process's expvar map (memstats, cmdline)
//	/debug/pprof/*              the standard pprof profiles
//
// A registry attached via Metrics also gets the process.* runtime gauges
// registered (idempotently) so every debug surface exports them.
func (d Debug) Handler() http.Handler {
	RegisterProcessMetrics(d.Metrics)
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := d.snapshot(time.Now())
		if r.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", PromContentType)
			if err := WriteProm(w, snap); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		writeJSON(w, snap)
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		var out []Event
		if len(d.EventSources) > 0 {
			out = MergedEvents(d.Events, d.EventSources)
		} else if q := r.URL.Query().Get("after"); q != "" {
			if after, err := strconv.ParseUint(q, 10, 64); err == nil {
				out = d.Events.Since(after)
			}
		} else {
			out = d.Events.Snapshot()
		}
		if out == nil {
			out = []Event{}
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, r *http.Request) {
		out := d.Spans.Snapshot()
		if q := r.URL.Query().Get("n"); q != "" {
			if n, err := strconv.Atoi(q); err == nil && n >= 0 && n < len(out) {
				out = out[len(out)-n:]
			}
		}
		if out == nil {
			out = []Span{}
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("/debug/profile", func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("format") {
		case "csv":
			w.Header().Set("Content-Type", "text/csv; charset=utf-8")
			if err := d.Profile.WriteCSV(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		case "text":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			d.Profile.WriteTable(w)
		default:
			out := d.Profile.Table()
			if out == nil {
				out = []LayerProfile{}
			}
			writeJSON(w, out)
		}
	})
	audit := ""
	if d.Audit != nil {
		mux.Handle("/debug/audit", d.Audit)
		audit = "/debug/audit\n"
	}
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "shredder debug endpoint\n\n"+
			"/debug/metrics        metrics snapshot (JSON, ?format=prom for Prometheus text)\n"+
			"/debug/spans          recent request spans (JSON, ?n=N)\n"+
			"/debug/profile        per-layer compute profile (JSON, ?format=csv|text)\n"+
			"/debug/events         SLO transition events (JSON, ?after=seq)\n"+
			"/debug/vars           expvar\n"+
			"/debug/pprof/         profiles\n"+audit)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// DebugServer is a running debug HTTP listener.
type DebugServer struct {
	Addr string // bound address, e.g. "127.0.0.1:43123"
	srv  *http.Server
}

// Serve binds addr (e.g. "127.0.0.1:0") and serves d.Handler() on
// background goroutines until Close.
func (d Debug) Serve(addr string) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listen: %w", err)
	}
	ds := &DebugServer{Addr: ln.Addr().String(), srv: &http.Server{Handler: d.Handler()}}
	go ds.srv.Serve(ln)
	return ds, nil
}

// Close stops the listener and closes open debug connections.
func (d *DebugServer) Close() error {
	if d == nil {
		return nil
	}
	return d.srv.Close()
}
