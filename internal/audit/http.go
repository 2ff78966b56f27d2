package audit

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"shredder/internal/obs"
)

// The /debug/audit surface, mirroring the obs merge design: a Source
// abstracts "somewhere proofs and roots come from" (the local Auditor,
// or a backend's /debug/audit over HTTP), and one Handler serves any
// number of sources — a CloudServer mounts its own auditor, a Gateway
// mounts one HTTPSource per backend and becomes the fleet's single
// evidence endpoint.
//
//	GET /debug/audit                → status (single source: Status;
//	                                  several: {"sources": {...}, "errors": {...}})
//	GET /debug/audit?view=roots     → union of anchored roots, JSON array
//	GET /debug/audit?trace=<hex>    → InclusionProof for that trace, or 404

// RootJSON is an AnchoredRoot shaped for the HTTP surface (hex root,
// optional backend label when served through a merged handler).
type RootJSON struct {
	Seq       uint64 `json:"seq"`
	Count     int    `json:"count"`
	Root      string `json:"root"`
	UnixNanos int64  `json:"unix_nanos"`
	Backend   string `json:"backend,omitempty"`
}

// ToAnchored converts back to the verification form. Fails on bad hex.
func (r RootJSON) ToAnchored() (AnchoredRoot, error) {
	ar := AnchoredRoot{Seq: r.Seq, Count: r.Count, UnixNanos: r.UnixNanos}
	if err := decodeHash(r.Root, &ar.Root); err != nil {
		return AnchoredRoot{}, fmt.Errorf("%w: root %d: %v", ErrLedgerCorrupt, r.Seq, err)
	}
	return ar, nil
}

// Status is the human-facing overview of one audit source.
type Status struct {
	Summary Summary    `json:"summary"`
	Roots   []RootJSON `json:"roots"`
}

// Source is one provider of audit evidence.
type Source interface {
	// Label names the source in merged output ("local", backend label).
	Label() string
	// Status returns the source's summary and anchored roots.
	Status() (Status, error)
	// Proof fetches the inclusion proof for a trace; found=false when
	// the source does not hold the trace (not an error).
	Proof(traceHex string) (p *InclusionProof, found bool, err error)
}

// LocalSource serves a process-local Auditor.
type LocalSource struct{ Auditor *Auditor }

// Label implements Source.
func (s LocalSource) Label() string { return "local" }

// Status implements Source.
func (s LocalSource) Status() (Status, error) {
	roots := s.Auditor.Roots()
	out := Status{Summary: s.Auditor.Summarize(), Roots: make([]RootJSON, len(roots))}
	for i, r := range roots {
		out.Roots[i] = RootJSON{Seq: r.Seq, Count: r.Count, Root: hex.EncodeToString(r.Root[:]), UnixNanos: r.UnixNanos}
	}
	return out, nil
}

// Proof implements Source.
func (s LocalSource) Proof(traceHex string) (*InclusionProof, bool, error) {
	t, err := ParseTrace(traceHex)
	if err != nil {
		return nil, false, err
	}
	p, ok := s.Auditor.ProofByTrace(t)
	return p, ok, nil
}

// ParseTrace parses a hex trace ID as served in proofs and span dumps.
func ParseTrace(s string) (uint64, error) {
	t, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("audit: bad trace id %q: %w", s, err)
	}
	return t, nil
}

// HTTPSource fetches audit evidence from a peer's /debug/audit
// endpoint — how a gateway reaches each backend's ledger, the audit side
// of the obs.HTTPSource fan-out.
type HTTPSource struct {
	// Name labels the peer in merged output.
	Name string
	// Base is the peer's audit endpoint, e.g. "http://host:port/debug/audit".
	Base string
	// Client defaults to obs.GetJSON's 2-second-timeout client.
	Client *http.Client
}

// Label implements Source.
func (s HTTPSource) Label() string { return s.Name }

// Status implements Source.
func (s HTTPSource) Status() (Status, error) {
	var st Status
	err := s.get("", &st)
	return st, err
}

// Proof implements Source. A peer 404 means "not held here".
func (s HTTPSource) Proof(traceHex string) (*InclusionProof, bool, error) {
	var p InclusionProof
	switch err := s.get("?trace="+traceHex, &p); {
	case errors.Is(err, obs.ErrNotFound):
		return nil, false, nil
	case err != nil:
		return nil, false, err
	}
	return &p, true, nil
}

// get decodes the JSON the peer's audit endpoint serves for query.
func (s HTTPSource) get(query string, dst any) error {
	if err := obs.GetJSON(s.Client, s.Base+query, dst); err != nil {
		return fmt.Errorf("audit: fetch from %s: %w", s.Name, err)
	}
	return nil
}

// Handler serves the audit endpoint over the given sources. Proof
// lookups try sources in order and relay the first hit; roots queries
// return the union, labelled per source; the bare status is the single
// source's Status, or a per-label map when there are several.
func Handler(sources ...Source) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if trace := req.URL.Query().Get("trace"); trace != "" {
			serveProof(w, sources, trace)
			return
		}
		if req.URL.Query().Get("view") == "roots" {
			serveRoots(w, sources)
			return
		}
		serveStatus(w, sources)
	})
}

func serveProof(w http.ResponseWriter, sources []Source, trace string) {
	var lastErr error
	for _, s := range sources {
		p, found, err := s.Proof(trace)
		if err != nil {
			lastErr = err
			continue
		}
		if found {
			json.NewEncoder(w).Encode(p)
			return
		}
	}
	w.WriteHeader(http.StatusNotFound)
	msg := fmt.Sprintf("no sealed record for trace %s", trace)
	if lastErr != nil {
		msg += "; last source error: " + lastErr.Error()
	}
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func serveRoots(w http.ResponseWriter, sources []Source) {
	union := []RootJSON{}
	for _, s := range sources {
		st, err := s.Status()
		if err != nil {
			continue
		}
		for _, r := range st.Roots {
			if len(sources) > 1 && r.Backend == "" {
				r.Backend = s.Label()
			}
			union = append(union, r)
		}
	}
	json.NewEncoder(w).Encode(union)
}

func serveStatus(w http.ResponseWriter, sources []Source) {
	if len(sources) == 1 {
		st, err := sources[0].Status()
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
			return
		}
		json.NewEncoder(w).Encode(st)
		return
	}
	out := struct {
		Sources map[string]Status `json:"sources"`
		Errors  map[string]string `json:"errors,omitempty"`
	}{Sources: map[string]Status{}, Errors: map[string]string{}}
	for _, s := range sources {
		st, err := s.Status()
		if err != nil {
			out.Errors[s.Label()] = err.Error()
			continue
		}
		out.Sources[s.Label()] = st
	}
	if len(out.Errors) == 0 {
		out.Errors = nil
	}
	json.NewEncoder(w).Encode(out)
}

// FetchProof retrieves trace's proof from an audit endpoint — the
// `shredder audit verify` client half.
func FetchProof(base, traceHex string, client *http.Client) (*InclusionProof, error) {
	src := HTTPSource{Name: base, Base: base, Client: client}
	p, found, err := src.Proof(traceHex)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("audit: trace %s not found at %s", traceHex, base)
	}
	return p, nil
}

// FetchRoots retrieves the anchored-root union from an audit endpoint.
func FetchRoots(base string, client *http.Client) ([]AnchoredRoot, error) {
	src := HTTPSource{Name: base, Base: base, Client: client}
	var rows []RootJSON
	if err := src.get("?view=roots", &rows); err != nil {
		return nil, err
	}
	out := make([]AnchoredRoot, 0, len(rows))
	for _, r := range rows {
		ar, err := r.ToAnchored()
		if err != nil {
			return nil, err
		}
		out = append(out, ar)
	}
	return out, nil
}
