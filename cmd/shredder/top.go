package main

// cmdTop is the live fleet dashboard: it polls one serve or gateway debug
// endpoint (/debug/metrics + /debug/events) and renders per-backend QPS,
// windowed latency quantiles, batch occupancy, the realized in-vivo 1/SNR,
// and the active SLO alerts. Against a gateway with -backend-debug (one debug
// base URL per backend), one `shredder top` watches the whole fleet.

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"shredder/internal/core"
	"shredder/internal/obs"
)

func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	url := fs.String("url", "", "debug endpoint base URL, e.g. http://127.0.0.1:8080 (required)")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval between frames")
	n := fs.Int("n", 0, "frames to render before exiting (0 = until killed)")
	plain := fs.Bool("plain", false, "do not clear the screen between frames (log-friendly)")
	fs.Parse(args)
	if *url == "" {
		return fmt.Errorf("top: -url is required")
	}
	base := strings.TrimRight(*url, "/")
	client := &http.Client{Timeout: 5 * time.Second}
	for i := 0; *n == 0 || i < *n; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		snap, events, err := topFetch(client, base)
		if err != nil {
			return fmt.Errorf("top: %w", err)
		}
		if !*plain {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, cursor home
		}
		renderTop(os.Stdout, base, snap, events, time.Now())
	}
	return nil
}

// topFetch pulls one frame's worth of state. A missing /debug/events (no
// SLO configured) degrades to a metrics-only frame rather than failing.
func topFetch(client *http.Client, base string) (obs.Snapshot, []obs.Event, error) {
	var snap obs.Snapshot
	if err := obs.GetJSON(client, base+"/debug/metrics", &snap); err != nil {
		return snap, nil, err
	}
	var events []obs.Event
	if err := obs.GetJSON(client, base+"/debug/events", &events); err != nil {
		events = nil
	}
	return snap, events, nil
}

// topRow is one serving process's line in the dashboard table: the local
// process (empty prefix) or one merged backend (prefix "backend.<x>.").
type topRow struct {
	label  string
	prefix string
	kind   string // "server" or "gateway"
}

// topRows discovers the serving processes present in a snapshot by their
// request counters, local process first, then backends sorted by label.
func topRows(s obs.Snapshot) []topRow {
	var rows []topRow
	for name := range s.Counters {
		var kind string
		switch {
		case strings.HasSuffix(name, "server.requests"):
			kind = "server"
		case strings.HasSuffix(name, "gateway.requests"):
			kind = "gateway"
		default:
			continue
		}
		prefix := strings.TrimSuffix(name, kind+".requests")
		label := strings.TrimSuffix(prefix, ".")
		if label == "" {
			label = "(local " + kind + ")"
		}
		rows = append(rows, topRow{label: label, prefix: prefix, kind: kind})
	}
	sort.Slice(rows, func(i, j int) bool {
		if (rows[i].prefix == "") != (rows[j].prefix == "") {
			return rows[i].prefix == ""
		}
		return rows[i].label < rows[j].label
	})
	return rows
}

// topAlert is one firing objective reconstructed from the slo.*.firing /
// .value / .target gauge triples, which survive the metrics merge — so a
// backend's alert is visible even when its event feed is not wired up.
type topAlert struct {
	name          string
	value, target float64
}

func topFiring(s obs.Snapshot) []topAlert {
	var out []topAlert
	for name, v := range s.Gauges {
		if v == 0 || !strings.HasSuffix(name, ".firing") {
			continue
		}
		base := strings.TrimSuffix(name, ".firing")
		if !strings.Contains(base+".", "slo.") {
			continue
		}
		out = append(out, topAlert{
			name:   base,
			value:  s.Gauges[base+".value"],
			target: s.Gauges[base+".target"],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// fmtSeconds renders a duration-in-seconds metric human-scale (1.5ms, 250µs).
func fmtSeconds(v float64) string {
	return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
}

// renderTop writes one dashboard frame. Pure: everything it shows comes
// from the snapshot and event list, so tests drive it directly.
func renderTop(w io.Writer, base string, snap obs.Snapshot, events []obs.Event, now time.Time) {
	fmt.Fprintf(w, "shredder top — %s @ %s", base, now.Format("15:04:05"))
	if snap.Window != nil && snap.Window.Seconds > 0 {
		fmt.Fprintf(w, "  window %.0fs", snap.Window.Seconds)
	}
	if up := snap.Gauges["process.uptime_seconds"]; up > 0 {
		fmt.Fprintf(w, "  up %s", time.Duration(up*float64(time.Second)).Round(time.Second))
	}
	if gr := snap.Gauges["process.goroutines"]; gr > 0 {
		fmt.Fprintf(w, "  goroutines %.0f", gr)
	}
	if hb := snap.Gauges["process.heap_bytes"]; hb > 0 {
		fmt.Fprintf(w, "  heap %.1fMB", hb/(1<<20))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w)

	rows := topRows(snap)
	if len(rows) == 0 {
		fmt.Fprintln(w, "no serving metrics in snapshot (is -url a serve or gateway debug endpoint?)")
	} else {
		fmt.Fprintf(w, "%-32s %10s %8s %10s %10s %5s %9s\n",
			"backend", "requests", "qps", "p50", "p99", "occ", "1/SNR")
		for _, r := range rows {
			fmt.Fprintln(w, topLine(r, snap))
		}
	}

	firing := topFiring(snap)
	fmt.Fprintln(w)
	if len(firing) == 0 {
		fmt.Fprintln(w, "alerts: none firing")
	} else {
		fmt.Fprintf(w, "alerts: %d firing\n", len(firing))
		for _, a := range firing {
			fmt.Fprintf(w, "  FIRING %s  value %.4g (target %.4g)\n", a.name, a.value, a.target)
		}
	}

	if len(events) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "recent events:")
		start := len(events) - 8
		if start < 0 {
			start = 0
		}
		for _, e := range events[start:] {
			fmt.Fprintf(w, "  %s  %s\n", e.Time().Format("15:04:05"), e)
		}
	}
}

// topLine renders one backend row. Rates and quantiles prefer the sliding
// window (what is happening now); latency falls back to the cumulative
// histogram when no window is exported, and absent metrics render as "-".
func topLine(r topRow, snap obs.Snapshot) string {
	reqName := r.prefix + r.kind + ".requests"
	qps := "-"
	if snap.Window != nil {
		if wc, ok := snap.Window.Counters[reqName]; ok {
			qps = fmt.Sprintf("%.1f", wc.Rate)
		}
	}
	p50, p99 := "-", "-"
	latName := r.prefix + "server.latency_seconds"
	if snap.Window != nil {
		if wh, ok := snap.Window.Histograms[latName]; ok && wh.Count > 0 {
			p50, p99 = fmtSeconds(wh.P50), fmtSeconds(wh.P99)
		}
	}
	if p50 == "-" {
		if h, ok := snap.Histograms[latName]; ok && h.Count > 0 {
			p50, p99 = fmtSeconds(h.P50), fmtSeconds(h.P99)
		}
	}
	occ := "-"
	if v, ok := snap.Gauges[r.prefix+"server.batch.occupancy"]; ok && v > 0 {
		occ = fmt.Sprintf("%.0f", v)
	}
	snr := "-"
	if h, ok := snap.Histograms[r.prefix+core.MetricInVivo]; ok && h.Count > 0 {
		snr = fmt.Sprintf("%.4f", snap.Gauges[r.prefix+core.MetricInVivoLast])
	}
	return fmt.Sprintf("%-32s %10d %8s %10s %10s %5s %9s",
		r.label, snap.Counters[reqName], qps, p50, p99, occ, snr)
}
