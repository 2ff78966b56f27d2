package audit

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// gatedLedger holds every anchor until release is closed, so what seals
// together does not depend on how fast the anchor goroutine runs.
type gatedLedger struct {
	Ledger
	release <-chan struct{}
}

func (l gatedLedger) Anchor(r AnchoredRoot) error {
	<-l.release
	return l.Ledger.Anchor(r)
}

// TestDebugAuditProofGolden: the /debug/audit?trace= bodies of a fixed
// sequence of records — an idle seal, a full one, a flushed one that evicts
// the first — are the bytes recorded before ring slots kept their buffers.
func TestDebugAuditProofGolden(t *testing.T) {
	release := make(chan struct{})
	a := New(Options{MaxBatch: 3, KeepBatches: 2, MaxDelay: time.Hour, Ledger: gatedLedger{NewMemLedger(), release}})
	for i := 0; i < 6; i++ { // batch 0: record 0, idle; batch 1: records 1-3, full
		if err := a.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	a.Flush() // batch 2: records 4 and 5; batch 0 leaves the ring
	ts := httptest.NewServer(Handler(LocalSource{Auditor: a}))
	defer ts.Close()
	var got bytes.Buffer
	for _, trace := range []string{"0000000000000003", "6", "0000000000000001", "00000000000000ff"} {
		resp, err := http.Get(ts.URL + "?trace=" + trace)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "GET ?trace=%s\n%s\n%s", trace, resp.Status, body)
	}
	close(release)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/debug_audit_trace.golden"
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("/debug/audit?trace= bodies changed:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
